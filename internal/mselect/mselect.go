// Package mselect implements exact multi-sequence selection: given R
// sorted sequences and a target rank t, find splitter positions pos[0..R)
// with sum(pos) = t such that every element left of a splitter orders
// before every element right of a splitter.
//
// This is the engine of the paper's exact partitioning (Section IV-A):
// the run-formation internal sort uses it to split P node-local sorted
// arrays into P exactly equal parts, and phase two uses it (through the
// in-memory sample) to bootstrap the global splitters of the R external
// runs.
//
// Exactness requires a *total* order, so ties between equal elements are
// broken by (sequence index, position). This makes the answer unique and
// identical on every PE, which is what turns "approximately equal parts"
// (NOW-Sort) into the exact partition the paper advertises.
//
// Select is the in-memory algorithm (deterministic pivot bisection). Run
// formation's one-round split (job.SortExact) finishes every cut with it
// at the cut's owner; the distributed engine in package dselect runs the
// same bisection over the on-disk runs in phase two and finishes with it.
package mselect

import (
	"fmt"
	"sort"

	"demsort/internal/elem"
)

// Accessor is a read-only view of R sorted sequences.
type Accessor[T any] interface {
	// Seqs returns the number of sequences R.
	Seqs() int
	// Len returns the length of sequence s in elements.
	Len(s int) int64
	// At returns the element at position i of sequence s, 0 <= i < Len(s).
	At(s int, i int64) T
}

// SliceAccessor adapts in-memory slices to the Accessor interface.
type SliceAccessor[T any] [][]T

// Seqs implements Accessor.
func (a SliceAccessor[T]) Seqs() int { return len(a) }

// Len implements Accessor.
func (a SliceAccessor[T]) Len(s int) int64 { return int64(len(a[s])) }

// At implements Accessor.
func (a SliceAccessor[T]) At(s int, i int64) T { return a[s][i] }

// Total returns the combined length of all sequences of acc.
func Total[T any](acc Accessor[T]) int64 {
	var n int64
	for s := 0; s < acc.Seqs(); s++ {
		n += acc.Len(s)
	}
	return n
}

// Order is the strict total order on (element, sequence, position),
// probing the codec's normalized uint64 keys first: for exact-keyed
// codecs (U64, KV16) the comparator never runs, and for inexact ones
// (Rec100) it runs only on shared 8-byte prefixes. Non-keyed codecs
// get a constant-zero key and always fall through to the comparator.
type Order[T any] struct {
	c     elem.Codec[T]
	Key   func(T) uint64
	exact bool
}

// OrderOf returns the total order induced by c.
func OrderOf[T any](c elem.Codec[T]) Order[T] {
	key, exact := elem.KeyFn(c)
	return Order[T]{c: c, Key: key, exact: exact}
}

// LessK compares with the keys already computed — the binary searches
// precompute the pivot's key once per search instead of per probe.
func (o Order[T]) LessK(ak uint64, a T, sa int, ia int64, bk uint64, b T, sb int, ib int64) bool {
	if ak != bk {
		return ak < bk
	}
	if !o.exact {
		if o.c.Less(a, b) {
			return true
		}
		if o.c.Less(b, a) {
			return false
		}
	}
	if sa != sb {
		return sa < sb
	}
	return ia < ib
}

// Less is LessK with both keys computed here.
func (o Order[T]) Less(a T, sa int, ia int64, b T, sb int, ib int64) bool {
	return o.LessK(o.Key(a), a, sa, ia, o.Key(b), b, sb, ib)
}

// Select returns the unique splitter positions for rank using pivot
// bisection. It probes O(R · log²(max length)) elements and is intended
// for in-memory sequences. rank must be in [0, Total(acc)].
func Select[T any](c elem.Codec[T], acc Accessor[T], rank int64) []int64 {
	r := acc.Seqs()
	total := Total(acc)
	if rank < 0 || rank > total {
		panic(fmt.Sprintf("mselect: rank %d out of range [0,%d]", rank, total))
	}
	ord := OrderOf(c)
	lo := make([]int64, r)
	hi := make([]int64, r)
	for q := 0; q < r; q++ {
		hi[q] = acc.Len(q)
	}
	for {
		// Choose the pivot from the widest remaining interval.
		best, width := -1, int64(0)
		for q := 0; q < r; q++ {
			if w := hi[q] - lo[q]; w > width {
				best, width = q, w
			}
		}
		if best == -1 {
			break
		}
		pi := (lo[best] + hi[best]) / 2
		pv := acc.At(best, pi)
		pk := ord.Key(pv)
		// split[q] = number of elements of q totally ordered before
		// (pv, best, pi). Within a sequence the total order equals
		// index order, so split[best] = pi and the others are found by
		// binary search.
		var cnt int64
		split := make([]int64, r)
		for q := 0; q < r; q++ {
			if q == best {
				split[q] = pi
			} else {
				n := acc.Len(q)
				qq := q
				j := sort.Search(int(n), func(j int) bool {
					v := acc.At(qq, int64(j))
					return !ord.LessK(ord.Key(v), v, qq, int64(j), pk, pv, best, pi)
				})
				split[q] = int64(j)
			}
			cnt += split[q]
		}
		if cnt < rank {
			// Pivot and everything before it belong to the left set.
			for q := 0; q < r; q++ {
				lo[q] = max(lo[q], split[q])
			}
			if pi+1 > lo[best] {
				lo[best] = pi + 1
			}
		} else {
			// Pivot and everything after it stay right.
			for q := 0; q < r; q++ {
				hi[q] = min(hi[q], split[q])
			}
		}
	}
	var sum int64
	for q := 0; q < r; q++ {
		sum += lo[q]
	}
	if sum != rank {
		panic(fmt.Sprintf("mselect: internal error, positions sum %d != rank %d", sum, rank))
	}
	return lo
}

// Sample is the in-memory sample of one sorted sequence kept during run
// formation (§IV-A: "during run formation, we store every K-th element
// of the sorted run as a sample"). Vals[j] is the element at position
// j·K of the full sequence.
type Sample[T any] struct {
	K    int64
	Vals []T
}

// SampleCuts runs the exact selection on the samples only and returns
// the estimated full-sequence positions scut[q]·K (clamped to the
// sequence lengths). The true splitters deviate from these estimates by
// at most (R+2)·K per sequence in the worst case, and typically by about
// K.
func SampleCuts[T any](c elem.Codec[T], samples []Sample[T], lens []int64, rank int64) []int64 {
	r := len(samples)
	if r == 0 {
		return nil
	}
	k := samples[0].K
	sseqs := make([][]T, r)
	for q := range samples {
		if samples[q].K != k {
			panic("mselect: samples must share one K")
		}
		sseqs[q] = samples[q].Vals
	}
	sacc := SliceAccessor[T](sseqs)
	stotal := Total[T](sacc)
	// Scale the rank by the actual sampling ratio, not by 1/K: a run's
	// last sample stands for fewer than K elements, and when the runs
	// are key bands (pre-sorted input, all keys equal) rank/K lets that
	// shortfall add up over the runs left of the cut — whole runs' worth
	// of error in the one run the cut passes through.
	var total int64
	for _, n := range lens {
		total += n
	}
	var srank int64
	if total > 0 {
		srank = min(int64(float64(rank)*float64(stotal)/float64(total)), stotal)
	}
	scut := Select[T](c, sacc, srank)
	cuts := make([]int64, r)
	for q := 0; q < r; q++ {
		cuts[q] = scut[q] * k
		cuts[q] = min(cuts[q], lens[q])
	}
	return cuts
}
