package pq

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

func newKeyTree(n int, keys []uint64, live []bool, tie func(a, b int) bool) *KeyTree {
	t := &KeyTree{}
	t.Reset(n, keys, live, tie)
	return t
}

// mergeWithKeyTree drains k sorted uint64 streams through a KeyTree,
// returning (value, stream) pairs in emission order.
func mergeWithKeyTree(seqs [][]uint64, tie func(a, b int) bool) (vals []uint64, srcs []int) {
	k := len(seqs)
	keys := make([]uint64, k)
	live := make([]bool, k)
	pos := make([]int, k)
	for i, s := range seqs {
		if len(s) > 0 {
			keys[i] = s[0]
			live[i] = true
		}
	}
	t := newKeyTree(k, keys, live, tie)
	for !t.Empty() {
		i := t.Win()
		vals = append(vals, seqs[i][pos[i]])
		srcs = append(srcs, i)
		pos[i]++
		if pos[i] < len(seqs[i]) {
			t.Replace(seqs[i][pos[i]])
		} else {
			t.Retire()
		}
	}
	return vals, srcs
}

// referenceMerge is what a k-way merge must emit, computed without any
// tree: every (value, stream, position) triple stably sorted by value —
// the triples are listed stream by stream, so equal values keep stream
// order and, within a stream, position order.
func referenceMerge(seqs [][]uint64) (vals []uint64, srcs []int) {
	for i, s := range seqs {
		for _, v := range s {
			vals = append(vals, v)
			srcs = append(srcs, i)
		}
	}
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	outV, outS := make([]uint64, len(idx)), make([]int, len(idx))
	for i, j := range idx {
		outV[i], outS[i] = vals[j], srcs[j]
	}
	return outV, outS
}

// TestKeyTreeMatchesStableSort cross-checks the key tree against the
// reference: same multiset out, same (value, stream-index) emission
// order — on duplicate-heavy streams (the tie rule decides almost every
// replay) and on random streams that include the dead-key sentinel
// value ^0 as a live key.
func TestKeyTreeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	// An ordered slice, not a map: the cases share rng, so the inputs
	// replay from the seed only in a fixed order.
	draws := []struct {
		name string
		draw func() uint64
	}{
		{"duplicate-heavy", func() uint64 { return rng.Uint64N(5) }},
		{"sentinel", func() uint64 {
			switch rng.Uint64N(8) {
			case 0:
				return ^uint64(0) // collides with the sentinel
			case 1:
				return 0
			}
			return rng.Uint64()
		}},
	}
	for _, d := range draws {
		name, draw := d.name, d.draw
		for _, k := range []int{1, 2, 3, 4, 5, 7, 9, 16, 17, 33} {
			seqs := make([][]uint64, k)
			for i := range seqs {
				seqs[i] = make([]uint64, rng.Uint64N(200))
				for j := range seqs[i] {
					seqs[i][j] = draw()
				}
				slices.Sort(seqs[i])
			}
			gotV, gotS := mergeWithKeyTree(seqs, nil)
			wantV, wantS := referenceMerge(seqs)
			if !slices.Equal(gotV, wantV) || !slices.Equal(gotS, wantS) {
				t.Fatalf("%s k=%d: key tree and stable sort disagree", name, k)
			}
		}
	}
}

// TestKeyTreeTieCallback drives the comparator fallback: all keys
// equal, a tie callback that inverts the index order.
func TestKeyTreeTieCallback(t *testing.T) {
	rank := []int{2, 0, 1} // stream 1 first, then 2, then 0
	tie := func(a, b int) bool { return rank[a] < rank[b] }
	tr := newKeyTree(3, []uint64{5, 5, 5}, []bool{true, true, true}, tie)
	var order []int
	for !tr.Empty() {
		order = append(order, tr.Win())
		tr.Retire()
	}
	if !slices.Equal(order, []int{1, 2, 0}) {
		t.Fatalf("tie callback ignored: emission order %v", order)
	}
}

func TestKeyTreeResetReuses(t *testing.T) {
	tr := newKeyTree(8, make([]uint64, 8), []bool{true, true, true, true, true, true, true, true}, nil)
	for !tr.Empty() {
		tr.Retire()
	}
	// Reset to a smaller live configuration; state must not leak.
	tr.Reset(3, []uint64{3, 1, 2}, []bool{true, true, true}, nil)
	var got []uint64
	for !tr.Empty() {
		got = append(got, tr.key[tr.win])
		tr.Retire()
	}
	if !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Fatalf("after reset: %v", got)
	}
}

func TestKeyTreeAllEmpty(t *testing.T) {
	tr := newKeyTree(4, make([]uint64, 4), make([]bool, 4), nil)
	if !tr.Empty() {
		t.Error("expected empty tree when no stream is live")
	}
}
