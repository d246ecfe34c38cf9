package psort

import (
	"slices"
	"sync"

	"demsort/internal/elem"
)

// The radix engine's shared pass: all workers build (key, index) pairs
// and per-worker digit histograms for their slice in one sweep, the
// column sums give the global uniform-digit mask, and inexact-key
// codecs get their tied runs re-sorted with the comparator afterwards.

// runParallel executes f(0..workers-1) concurrently and joins.
// workers == 1 runs inline with no goroutine.
func runParallel(workers int, f func(w int)) {
	if workers <= 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	f(0)
	wg.Wait()
}

// workerBounds splits [0, n) into `workers` near-equal ranges;
// bounds[w] .. bounds[w+1] is worker w's slice.
func workerBounds(n, workers int) []int {
	b := make([]int, workers+1)
	for w := 0; w <= workers; w++ {
		b[w] = n * w / workers
	}
	return b
}

// checkLen guards the int32 index representation.
func checkLen(n int) {
	if n > 1<<31-1 {
		panic("psort: radix sort input exceeds 2^31 elements")
	}
}

// buildPairs fills a[lo:hi] with (key, original index) pairs for
// vs[lo:hi] and counts all 8 byte digits into h. Keys are extracted in
// blocks through elem.KeysInto so codecs with a bulk keyer avoid the
// per-element interface call.
func buildPairs[T any](kc elem.KeyedCodec[T], vs []T, a []keyIdx, lo, hi int, h *digitHist) {
	var kbuf [512]uint64
	for base := lo; base < hi; base += len(kbuf) {
		end := base + len(kbuf)
		if end > hi {
			end = hi
		}
		elem.KeysInto[T](kc, kbuf[:end-base], vs[base:end])
		for i := base; i < end; i++ {
			k := kbuf[i-base]
			a[i] = keyIdx{key: k, idx: int32(i)}
			h[0][byte(k)]++
			h[1][byte(k>>8)]++
			h[2][byte(k>>16)]++
			h[3][byte(k>>24)]++
			h[4][byte(k>>32)]++
			h[5][byte(k>>40)]++
			h[6][byte(k>>48)]++
			h[7][byte(k>>56)]++
		}
	}
}

// colSums sums the per-worker build-pass histograms into the global
// digit-count matrix and derives the uniform-digit mask (any bucket
// holding all n keys). Global counts are permutation-invariant, so the
// mask stays valid at every recursion level.
func colSums(hists []digitHist, n int) (col digitHist, uniform [8]bool) {
	for w := range hists {
		h := &hists[w]
		for d := 0; d < 8; d++ {
			for j := 0; j < 256; j++ {
				col[d][j] += h[d][j]
			}
		}
	}
	for d := 0; d < 8; d++ {
		for j := 0; j < 256; j++ {
			if col[d][j] == int32(n) {
				uniform[d] = true
				break
			}
		}
	}
	return col, uniform
}

// fixupTies re-sorts runs of equal truncated keys with the comparator
// for inexact-key codecs (Rec100): the runs of vs itself, or with perm
// non-nil the runs of perm, compared through vs[perm[i]]. Within a run
// the elements are in original order (the pair order is the stable
// order), so a stable sort keeps the overall result stable. Each worker
// owns the runs that *start* in its range — a run crossing a boundary
// belongs wholly to the worker it starts in, and the right-hand worker
// skips past it — so the runs processed are disjoint and the pass is
// race-free.
func fixupTies[T any](kc elem.KeyedCodec[T], vs []T, perm []int32, a []keyIdx, bounds []int, workers int) {
	n := len(vs)
	cmpT := cmp[T](kc)
	runParallel(workers, func(w int) {
		lo, hi := bounds[w], bounds[w+1]
		i := lo
		if w > 0 {
			for i < hi && a[i].key == a[i-1].key {
				i++
			}
		}
		for i < hi {
			j := i + 1
			for j < n && a[j].key == a[i].key {
				j++
			}
			if j-i > 1 {
				if perm == nil {
					slices.SortStableFunc(vs[i:j], cmpT)
				} else {
					sortIndex(vs, perm[i:j], cmpT)
				}
			}
			i = j
		}
	})
}
