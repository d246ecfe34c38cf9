package mselect

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"demsort/internal/elem"
)

var u64c = elem.U64Codec{}

func randSeqs(rng *rand.Rand, k, maxLen, keyRange int) [][]elem.U64 {
	seqs := make([][]elem.U64, k)
	for i := range seqs {
		n := int(rng.Uint64N(uint64(maxLen + 1)))
		seqs[i] = make([]elem.U64, n)
		for j := range seqs[i] {
			seqs[i][j] = elem.U64(rng.Uint64N(uint64(keyRange)))
		}
		slices.Sort(seqs[i])
	}
	return seqs
}

// refLeftSet computes the reference left multiset: the rank smallest
// elements under the (value, seq, pos) total order, by brute force.
func refLeftSet(seqs [][]elem.U64, rank int64) []int64 {
	type tagged struct {
		v elem.U64
		s int
		i int64
	}
	var all []tagged
	for s, seq := range seqs {
		for i, v := range seq {
			all = append(all, tagged{v, s, int64(i)})
		}
	}
	slices.SortFunc(all, func(a, b tagged) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		case a.s != b.s:
			return a.s - b.s
		default:
			return int(a.i - b.i)
		}
	})
	pos := make([]int64, len(seqs))
	for _, t := range all[:rank] {
		pos[t.s]++
	}
	return pos
}

func TestSelectMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for iter := 0; iter < 200; iter++ {
		k := 1 + int(rng.UintN(6))
		seqs := randSeqs(rng, k, 30, 10) // heavy duplicates
		acc := SliceAccessor[elem.U64](seqs)
		total := Total[elem.U64](acc)
		rank := int64(rng.Uint64N(uint64(total + 1)))
		got := Select[elem.U64](u64c, acc, rank)
		want := refLeftSet(seqs, rank)
		if !slices.Equal(got, want) {
			t.Fatalf("iter %d: Select=%v brute=%v (rank %d, seqs %v)", iter, got, want, rank, seqs)
		}
		if err := checkPartition[elem.U64](u64c, acc, rank, got); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

func TestSelectExtremes(t *testing.T) {
	seqs := [][]elem.U64{{1, 2, 3}, {}, {2, 2}}
	acc := SliceAccessor[elem.U64](seqs)
	if got := Select[elem.U64](u64c, acc, 0); !slices.Equal(got, []int64{0, 0, 0}) {
		t.Fatalf("rank 0: %v", got)
	}
	if got := Select[elem.U64](u64c, acc, 5); !slices.Equal(got, []int64{3, 0, 2}) {
		t.Fatalf("rank total: %v", got)
	}
}

func TestSelectAllEqualKeys(t *testing.T) {
	// With all-equal keys, exactness is entirely down to tie-breaking.
	seqs := [][]elem.U64{{7, 7, 7}, {7, 7}, {7, 7, 7, 7}}
	acc := SliceAccessor[elem.U64](seqs)
	for rank := int64(0); rank <= 9; rank++ {
		got := Select[elem.U64](u64c, acc, rank)
		want := refLeftSet(seqs, rank)
		if !slices.Equal(got, want) {
			t.Fatalf("rank %d: got %v want %v", rank, got, want)
		}
	}
}

func TestSelectQuickProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	f := func(seed uint64, rankSel uint16) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e37))
		seqs := randSeqs(rng, 1+int(seed%5), 25, 6)
		acc := SliceAccessor[elem.U64](seqs)
		total := Total[elem.U64](acc)
		rank := int64(0)
		if total > 0 {
			rank = int64(rankSel) % (total + 1)
		}
		pos := Select[elem.U64](u64c, acc, rank)
		return checkPartition[elem.U64](u64c, acc, rank, pos) == nil
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// buildSamples extracts every K-th element, as run formation does.
func buildSamples(seqs [][]elem.U64, k int64) ([]Sample[elem.U64], []int64) {
	samples := make([]Sample[elem.U64], len(seqs))
	lens := make([]int64, len(seqs))
	for q, s := range seqs {
		lens[q] = int64(len(s))
		var vals []elem.U64
		for j := int64(0); j < int64(len(s)); j += k {
			vals = append(vals, s[j])
		}
		samples[q] = Sample[elem.U64]{K: k, Vals: vals}
	}
	return samples, lens
}

// The worst case of the sample estimate: the true splitters lie within
// (R+2)·K of it. (The external selection starts 2·K around the estimate
// and redoes a rank that the exact counts show to lie outside.)
func TestSampleCutsWithinBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(40, 41))
	for iter := 0; iter < 100; iter++ {
		nSeq := 1 + int(rng.UintN(6))
		seqs := randSeqs(rng, nSeq, 200, 50)
		acc := SliceAccessor[elem.U64](seqs)
		total := Total[elem.U64](acc)
		rank := int64(rng.Uint64N(uint64(total + 1)))
		want := Select[elem.U64](u64c, acc, rank)
		for _, k := range []int64{1, 4, 16} {
			samples, lens := buildSamples(seqs, k)
			cuts := SampleCuts[elem.U64](u64c, samples, lens, rank)
			margin := int64(nSeq+2) * k
			for q := range want {
				if want[q] < cuts[q]-margin || want[q] > cuts[q]+margin {
					t.Fatalf("iter %d K=%d seq %d: answer %d further than %d from estimate %d",
						iter, k, q, want[q], margin, cuts[q])
				}
			}
		}
	}
}

func TestSelectRec100(t *testing.T) {
	// Exercise selection on SortBenchmark records too.
	c := elem.Rec100Codec{}
	rng := rand.New(rand.NewPCG(21, 22))
	seqs := make([][]elem.Rec100, 3)
	for i := range seqs {
		seqs[i] = make([]elem.Rec100, 64)
		for j := range seqs[i] {
			for b := 0; b < 10; b++ {
				seqs[i][j][b] = byte(rng.UintN(4)) // many duplicate keys
			}
		}
		slices.SortFunc(seqs[i], func(a, b elem.Rec100) int {
			if c.Less(a, b) {
				return -1
			}
			if c.Less(b, a) {
				return 1
			}
			return 0
		})
	}
	acc := SliceAccessor[elem.Rec100](seqs)
	total := Total[elem.Rec100](acc)
	for _, rank := range []int64{0, 1, total / 3, total / 2, total - 1, total} {
		pos := Select[elem.Rec100](c, acc, rank)
		if err := checkPartition[elem.Rec100](c, acc, rank, pos); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func BenchmarkSelect8x64k(b *testing.B) {
	rng := rand.New(rand.NewPCG(31, 32))
	seqs := make([][]elem.U64, 8)
	for i := range seqs {
		seqs[i] = make([]elem.U64, 1<<16)
		for j := range seqs[i] {
			seqs[i][j] = elem.U64(rng.Uint64())
		}
		slices.Sort(seqs[i])
	}
	acc := SliceAccessor[elem.U64](seqs)
	total := Total[elem.U64](acc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Select[elem.U64](u64c, acc, total/2)
	}
}

// checkPartition verifies the selection invariant for positions pos on
// acc at rank: positions sum to rank and max-left orders before
// min-right. It returns an error describing the first violation.
func checkPartition[T any](c elem.Codec[T], acc Accessor[T], rank int64, pos []int64) error {
	ord := OrderOf(c)
	var sum int64
	for q := range pos {
		if pos[q] < 0 || pos[q] > acc.Len(q) {
			return fmt.Errorf("mselect: position %d of seq %d outside [0,%d]", pos[q], q, acc.Len(q))
		}
		sum += pos[q]
	}
	if sum != rank {
		return fmt.Errorf("mselect: positions sum %d, want rank %d", sum, rank)
	}
	maxQ := -1
	var maxV T
	for q := range pos {
		if pos[q] == 0 {
			continue
		}
		v := acc.At(q, pos[q]-1)
		if maxQ == -1 || ord.Less(maxV, maxQ, pos[maxQ]-1, v, q, pos[q]-1) {
			maxQ, maxV = q, v
		}
	}
	minQ := -1
	var minV T
	for q := range pos {
		if pos[q] >= acc.Len(q) {
			continue
		}
		v := acc.At(q, pos[q])
		if minQ == -1 || ord.Less(v, q, pos[q], minV, minQ, pos[minQ]) {
			minQ, minV = q, v
		}
	}
	if maxQ != -1 && minQ != -1 &&
		ord.Less(minV, minQ, pos[minQ], maxV, maxQ, pos[maxQ]-1) {
		return fmt.Errorf("mselect: left element (seq %d pos %d) orders after right element (seq %d pos %d)",
			maxQ, pos[maxQ]-1, minQ, pos[minQ])
	}
	return nil
}
