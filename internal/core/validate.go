package core

import (
	"bytes"
	"fmt"
	"sort"

	"demsort/internal/elem"
	"demsort/internal/job"
	"demsort/internal/psort"
)

// Validate checks a kept output against the original input: every PE's
// part is sorted, the parts concatenate to a globally sorted sequence,
// the partition is the exact canonical one (PE i holds ranks
// i·N/P … (i+1)·N/P), and the output is a permutation of the input
// (byte-exact multiset equality, so payloads survive too).
func (r *Result[T]) Validate(c elem.Codec[T], input [][]T) error {
	if r.Output == nil {
		return fmt.Errorf("core: Validate needs Config.KeepOutput")
	}
	var total int64
	for _, part := range input {
		total += int64(len(part))
	}
	if r.N != total {
		return fmt.Errorf("core: output has %d elements, input %d", r.N, total)
	}
	bounds := job.RankBounds(total, r.P)
	var flat []T
	for i, part := range r.Output {
		if int64(len(part)) != bounds[i+1]-bounds[i] {
			return fmt.Errorf("core: PE %d holds %d elements, canonical partition wants %d",
				i, len(part), bounds[i+1]-bounds[i])
		}
		if !elem.IsSorted(c, part) {
			return fmt.Errorf("core: PE %d output not sorted", i)
		}
		flat = append(flat, part...)
	}
	if !elem.IsSorted(c, flat) {
		return fmt.Errorf("core: concatenated output not globally sorted")
	}
	// Permutation check: sort a copy of the input and compare the
	// encodings as multisets per key. Equal keys may be permuted among
	// themselves (payload order within a key class is not specified),
	// so compare sorted encodings of each key class.
	var ref []T
	for _, part := range input {
		ref = append(ref, part...)
	}
	psort.Sort(c, ref, 4)
	if len(ref) != len(flat) {
		return fmt.Errorf("core: element count mismatch")
	}
	i := 0
	for i < len(ref) {
		j := i + 1
		for j < len(ref) && !c.Less(ref[i], ref[j]) && !c.Less(ref[j], ref[i]) {
			j++
		}
		if err := sameClass(c, ref[i:j], flat[i:j]); err != nil {
			return fmt.Errorf("core: key class at rank %d: %w", i, err)
		}
		i = j
	}
	return nil
}

// sameClass verifies two equal-key element sets are equal as multisets
// of encoded bytes.
func sameClass[T any](c elem.Codec[T], a, b []T) error {
	if len(a) != len(b) {
		return fmt.Errorf("class sizes differ: %d vs %d", len(a), len(b))
	}
	ea := encodeSorted(c, a)
	eb := encodeSorted(c, b)
	if !bytes.Equal(ea, eb) {
		return fmt.Errorf("element multisets differ")
	}
	return nil
}

func encodeSorted[T any](c elem.Codec[T], vs []T) []byte {
	sz := c.Size()
	rows := make([][]byte, len(vs))
	for i, v := range vs {
		rows[i] = make([]byte, sz)
		c.Encode(rows[i], v)
	}
	sort.Slice(rows, func(i, j int) bool { return bytes.Compare(rows[i], rows[j]) < 0 })
	out := make([]byte, 0, len(vs)*sz)
	for _, row := range rows {
		out = append(out, row...)
	}
	return out
}
