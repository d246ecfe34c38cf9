// Package xmerge implements sequential multiway merging of sorted
// sequences, the inner loop of both the run-formation internal sort and
// the final merge phase: Merge/AppendMerge over in-memory sequences and
// MergeStream over streams that arrive block by block.
//
// Merging runs on the flat key-inline tournament tree (pq.KeyTree):
// stream heads are summarised by 64-bit normalized keys
// (elem.KeyedCodec), so the replay after each emitted element is a
// handful of uint64 comparisons instead of indirect comparator calls.
// Codecs without keys — and key ties of codecs whose key is a prefix —
// fall back to Codec.Less transparently. The per-merge scratch (key
// tree, per-stream keys/liveness/positions) is element-type-independent
// and recycled through a pool, so repeated merges allocate nothing.
package xmerge

import (
	"sync"

	"demsort/internal/elem"
	"demsort/internal/pq"
)

// merger is the reusable scratch of one multiway merge. It holds no
// element data, only stream bookkeeping, so a single global pool
// serves merges of every element type.
type merger struct {
	tree pq.KeyTree
	keys []uint64
	live []bool
	pos  []int
}

var mergerPool = sync.Pool{New: func() any { return new(merger) }}

// getMerger returns a merger with zeroed n-sized stream arrays.
func getMerger(n int) *merger {
	m := mergerPool.Get().(*merger)
	if cap(m.keys) < n {
		m.keys = make([]uint64, n)
		m.live = make([]bool, n)
		m.pos = make([]int, n)
	}
	m.keys = m.keys[:n]
	m.live = m.live[:n]
	m.pos = m.pos[:n]
	for i := 0; i < n; i++ {
		m.keys[i] = 0
		m.live[i] = false
		m.pos[i] = 0
	}
	return m
}

// putMerger releases the scratch; the tie closure is dropped first so
// the pooled tree does not keep the caller's sequences reachable.
func putMerger(m *merger) {
	m.tree.DropTie()
	mergerPool.Put(m)
}

// Merge merges the sorted sequences seqs into a single sorted slice.
// Ties are broken by sequence index, making the output deterministic.
// The total length of the output equals the sum of input lengths.
func Merge[T any](c elem.Codec[T], seqs [][]T) []T {
	total := 0
	for _, s := range seqs {
		total += len(s)
	}
	out := make([]T, 0, total)
	return AppendMerge(c, out, seqs)
}

// AppendMerge merges seqs, appending to dst.
func AppendMerge[T any](c elem.Codec[T], dst []T, seqs [][]T) []T {
	switch len(seqs) {
	case 0:
		return dst
	case 1:
		return append(dst, seqs[0]...)
	case 2:
		return appendMerge2(c, dst, seqs[0], seqs[1])
	}
	kc, ok := c.(elem.KeyedCodec[T])
	if !ok {
		kc = zeroKey[T]{c}
	}
	return appendMergeKeyed(kc, dst, seqs)
}

// zeroKey gives a closure-only codec the constant-zero key (as
// elem.KeyFn does): every comparison then falls through to the Less
// tie-break, so the tree degenerates to the comparator order (plus the
// stream-index tie).
type zeroKey[T any] struct{ elem.Codec[T] }

func (zeroKey[T]) Key(T) uint64   { return 0 }
func (zeroKey[T]) KeyExact() bool { return false }

// appendMergeKeyed is the normalized-key merge loop: the tree replays
// on raw uint64 keys, the comparator is consulted only when a prefix
// key ties.
func appendMergeKeyed[T any](kc elem.KeyedCodec[T], dst []T, seqs [][]T) []T {
	n := len(seqs)
	m := getMerger(n)
	defer putMerger(m)
	pos := m.pos
	for i, s := range seqs {
		if len(s) > 0 {
			m.keys[i] = kc.Key(s[0])
			m.live[i] = true
		}
	}
	var tie func(a, b int) bool
	if !kc.KeyExact() {
		tie = func(a, b int) bool { return kc.Less(seqs[a][pos[a]], seqs[b][pos[b]]) }
	}
	t := &m.tree
	t.Reset(n, m.keys, m.live, tie)
	for !t.Empty() {
		i := t.Win()
		s := seqs[i]
		p := pos[i]
		dst = append(dst, s[p])
		p++
		pos[i] = p
		if p < len(s) {
			t.Replace(kc.Key(s[p]))
		} else {
			t.Retire()
		}
	}
	return dst
}

// appendMerge2 is the two-way special case (common when R is small).
func appendMerge2[T any](c elem.Codec[T], dst []T, a, b []T) []T {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if c.Less(b[j], a[i]) {
			dst = append(dst, b[j])
			j++
		} else {
			dst = append(dst, a[i])
			i++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// MergeStream k-way merges k sorted streams that arrive block by block
// — the loop of every external merge pass. next(i) returns stream i's
// next non-empty block, nil at its end; a block only has to stay valid
// until the following next(i). The merged sequence goes to emit in
// slices of outLen elements (the last one may be shorter), valid for
// the duration of the call; emit's error ends the merge. Ties are
// broken by stream index.
func MergeStream[T any](c elem.Codec[T], k, outLen int, next func(i int) []T, emit func([]T) error) error {
	if k == 0 {
		return nil
	}
	key, exact := elem.KeyFn(c)
	m := getMerger(k)
	defer putMerger(m)
	type stream struct {
		cur []T
		pos int
	}
	srcs := make([]stream, k)
	for i := range srcs {
		if blk := next(i); len(blk) > 0 {
			srcs[i].cur = blk
			m.keys[i], m.live[i] = key(blk[0]), true
		}
	}
	var tie func(a, b int) bool
	if !exact {
		tie = func(a, b int) bool {
			return c.Less(srcs[a].cur[srcs[a].pos], srcs[b].cur[srcs[b].pos])
		}
	}
	t := &m.tree
	t.Reset(k, m.keys, m.live, tie)
	out := make([]T, 0, outLen)
	for !t.Empty() {
		i := t.Win()
		s := &srcs[i]
		out = append(out, s.cur[s.pos])
		s.pos++
		if len(out) == outLen {
			if err := emit(out); err != nil {
				return err
			}
			out = out[:0]
		}
		if s.pos < len(s.cur) {
			t.Replace(key(s.cur[s.pos]))
		} else if blk := next(i); len(blk) > 0 {
			s.cur, s.pos = blk, 0
			t.Replace(key(blk[0]))
		} else {
			t.Retire()
		}
	}
	if len(out) > 0 {
		return emit(out)
	}
	return nil
}
