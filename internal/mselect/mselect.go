// Package mselect implements exact multi-sequence selection: given R
// sorted sequences and a target rank t, find splitter positions pos[0..R)
// with sum(pos) = t such that every element left of a splitter orders
// before every element right of a splitter.
//
// This is the engine of the paper's exact partitioning (Section IV-A):
// the run-formation internal sort uses it to split P node-local sorted
// arrays into P exactly equal parts, and phase two finishes the global
// splitters of the R external runs with it, starting from the brackets
// the in-memory sample proves (SampleBrackets).
//
// Exactness requires a *total* order, so ties between equal elements are
// broken by (sequence index, position). This makes the answer unique and
// identical on every PE, which is what turns "approximately equal parts"
// (NOW-Sort) into the exact partition the paper advertises.
//
// Select is the in-memory algorithm (deterministic pivot bisection). The
// distributed engine in package dselect finishes every cut with it at
// the cut's owner: in run formation (dselect.Split) at once, in phase two
// after the same bisection over the on-disk runs (dselect.Select).
package mselect

import (
	"fmt"
	"sort"

	"demsort/internal/elem"
	"demsort/internal/pq"
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
	kc := elem.Keyed(c)
	return Order[T]{c: c, Key: kc.Key, exact: kc.KeyExact()}
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

// Interval is a range of positions of one sequence: the elements
// [Lo, Hi), and the cuts Lo…Hi.
type Interval struct{ Lo, Hi int64 }

// Pos names the element at position At of sequence Seq (Seq < 0: none).
type Pos struct {
	Seq int
	At  int64
}

// Bracket is what the sample proves about one rank's cut: Seqs[q] holds
// its cut of sequence q, and whatever orders before sample Low lies left
// of it.
type Bracket struct {
	Seqs []Interval
	Low  Pos
}

// SampleBrackets returns the Bracket of each of the ascending ranks:
// out[j].Seqs[q].Lo ≤ Select(…, ranks[j])[q] ≤ out[j].Seqs[q].Hi. It
// walks the samples in the total order. Before sample t (of sequence q,
// at position x) lie x elements of q and, of a sequence with c samples
// walked, at least (c−1)·K+1 (c = 0: none) and at most min(c·K, its
// length): summed, lo(t) ≤ rank(t) ≤ hi(t). With a the last stop whose
// hi ≤ r (Low) and b the first whose lo ≥ r (or a sentinel past the
// end), a's lower and b's upper bounds bracket every sequence's cut r.
// The intervals reach out to the samples next to them (a itself in its
// own sequence, b in its), so that a search's first probes are free. A
// rank's intervals hold at most 2·R·K elements: lo and hi rise by at most
// K a stop and differ by at most (R−1)·(K−1), so a's lower bounds sum to
// at least r − R·(K−1), b's upper ones to at most r + R·(K−1), and
// reaching out adds one element an end. The walk keeps a loser tree over
// the sequences, not a copy of the sample.
func SampleBrackets[T any](c elem.Codec[T], samples []Sample[T], lens []int64, ranks []int64) []Bracket {
	r := len(samples)
	out := make([]Bracket, len(ranks))
	for j := range out {
		out[j].Seqs = make([]Interval, r)
	}
	ord := OrderOf(c)
	var n, k int64
	keys, live := make([]uint64, r), make([]bool, r)
	for q, s := range samples {
		if k = samples[0].K; s.K != k {
			panic("mselect: samples must share one K")
		}
		n += lens[q]
		if live[q] = len(s.Vals) > 0; live[q] {
			keys[q] = ord.Key(s.Vals[0])
		}
	}
	// seen[q] of sequence q's samples are walked, which bounds how many
	// of its elements lie before the stop.
	seen := make([]int64, r)
	low := func(q int) int64 { return max((seen[q]-1)*k+1, 0) }
	high := func(q int) int64 { return min(seen[q]*k, lens[q]) }
	var sumLo, sumHi int64
	var tree pq.KeyTree
	tree.Reset(r, keys, live, func(a, b int) bool {
		return ord.Less(samples[a].Vals[seen[a]], a, seen[a]*k, samples[b].Vals[seen[b]], b, seen[b]*k)
	})
	for ia, ib := 0, 0; ; {
		// The stop: sequence w's sample at x, or (w = −1) the sentinel.
		w, x, lo, hi := -1, int64(0), n, n
		if !tree.Empty() {
			w = tree.Win()
			x = seen[w] * k
			lo, hi = sumLo-low(w)+x, sumHi
		}
		for ; ib < len(ranks) && lo >= ranks[ib]; ib++ {
			for q := range out[ib].Seqs {
				out[ib].Seqs[q].Hi = min(seen[q]*k+1, lens[q])
			}
		}
		// hi at the next stop, which is sumHi once this sample is walked.
		for ; ia < len(ranks) && (w < 0 || hi+min(x+k, lens[w])-x > ranks[ia]); ia++ {
			out[ia].Low = Pos{w, x}
			for q := range out[ia].Seqs {
				out[ia].Seqs[q].Lo = max(seen[q]-1, 0) * k
			}
			if w >= 0 {
				out[ia].Seqs[w].Lo = x
			}
		}
		if w < 0 {
			return out
		}
		sumLo, sumHi = sumLo-low(w), sumHi-high(w)
		seen[w]++
		sumLo, sumHi = sumLo+low(w), sumHi+high(w)
		if seen[w] < int64(len(samples[w].Vals)) {
			tree.Replace(ord.Key(samples[w].Vals[seen[w]]))
		} else {
			tree.Retire()
		}
	}
}
