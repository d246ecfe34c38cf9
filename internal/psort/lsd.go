package psort

import (
	"slices"
	"sync"

	"demsort/internal/elem"
)

// The LSD engine: all workers build (key, index) pairs and per-worker
// digit histograms for their slice in one pass; for every digit on
// which the keys disagree, a prefix scan over the worker×bucket count
// matrix (bucket-major, then worker-major within a bucket) assigns
// each worker a disjoint range of scatter destinations, and the
// workers scatter concurrently. Worker w's pairs land before worker
// w+1's inside every bucket and each worker scans its slice in order,
// so the scatter is stable — the parallel result is bit-identical to
// the sequential one for every worker count.
//
// The skip-uniform-digit optimization generalizes to column sums of
// the per-worker counts: global digit counts are permutation-
// invariant, so the mask computed from the build pass stays valid for
// every later pass. Per-worker counts are NOT permutation-invariant —
// each scatter redistributes the pairs across the worker ranges — so
// a naive parallel LSD needs a re-count pass per digit. This engine
// avoids that: while scattering digit d, each worker also counts the
// *next* kept digit of every pair it writes, bucketed by which worker
// range the destination position falls in (writer-major × reader
// rows, reduced into the scan matrix at the next barrier). Scatter
// destinations are monotonic per bucket, so the reader index advances
// by comparison against the next range boundary — no division in the
// inner loop — and the parallel engine does the same number of passes
// over the pairs as the sequential one.

// histRow is one bucket-count row; an alias so digitHist rows and
// fused-count rows assign interchangeably.
type histRow = [256]int32

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
// bounds[w] .. bounds[w+1] is worker w's slice. The floor split means
// position p belongs to worker p·workers/n, which the fused counting
// in the scatter relies on.
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
// holding all n keys). Global counts are permutation-invariant, so
// both stay valid across every scatter pass.
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

// scatterOffsets turns digit d's per-worker counts into per-worker
// scatter cursors in place: hists[w][d][j] becomes the first output
// index for worker w's pairs with digit j. The scan order is
// bucket-major, then worker-major, which is exactly the stability
// order: worker w's pairs precede worker w+1's within every bucket.
func scatterOffsets(hists []digitHist, d int) {
	var sum int32
	for j := 0; j < 256; j++ {
		for w := range hists {
			c := hists[w][d][j]
			hists[w][d][j] = sum
			sum += c
		}
	}
}

// radixLSD sorts vs by (normalized key, original position) — i.e. the
// stable sort order — with the shared-histogram parallel LSD scatter,
// using up to `workers` goroutines. Pair and histogram scratch is
// pooled; the element gather buffer is a fresh allocation (generic []T
// may hold pointers — see arena.go).
func radixLSD[T any](kc elem.KeyedCodec[T], vs []T, workers int) {
	n, W := len(vs), workers
	checkLen(n)
	var ar arena
	defer ar.release()
	a := ar.pairs(n)
	b := ar.pairs(n)
	hists := ar.hists(W)
	bounds := workerBounds(n, W)

	runParallel(W, func(w int) {
		buildPairs(kc, vs, a, bounds[w], bounds[w+1], &hists[w])
	})
	_, uniform := colSums(hists, n)

	digits := make([]int, 0, 8)
	for d := 0; d < 8; d++ {
		if !uniform[d] {
			digits = append(digits, d)
		}
	}
	// Fused next-digit counts: writer-major rows, nextHist[w*W+r] is
	// worker w's counts of pairs it scattered into reader r's range.
	var nextHist []histRow
	if W > 1 && len(digits) > 1 {
		nextHist = ar.rows(W * W)
	}

	for i, d := range digits {
		if i > 0 && W > 1 {
			// This digit's per-reader counts were accumulated during
			// the previous scatter; reduce them into the scan matrix.
			for r := 0; r < W; r++ {
				row := &hists[r][d]
				*row = histRow{}
				for w := 0; w < W; w++ {
					src := &nextHist[w*W+r]
					for j := 0; j < 256; j++ {
						row[j] += src[j]
					}
				}
			}
		}
		scatterOffsets(hists, d)
		shift := uint(d * 8)
		fuse := W > 1 && i+1 < len(digits)
		var shift2 uint
		if fuse {
			shift2 = uint(digits[i+1] * 8)
		}
		runParallel(W, func(w int) {
			cur := &hists[w][d]
			part := a[bounds[w]:bounds[w+1]]
			if !fuse {
				for _, p := range part {
					dig := byte(p.key >> shift)
					b[cur[dig]] = p
					cur[dig]++
				}
				return
			}
			nh := nextHist[w*W : (w+1)*W]
			for k := range nh {
				nh[k] = histRow{}
			}
			// Destination positions are strictly increasing per
			// bucket, so the reader range of each bucket's cursor only
			// ever advances: track it with a boundary compare instead
			// of dividing per element.
			var rcur, rbound [256]int32
			for _, p := range part {
				dig := byte(p.key >> shift)
				pos := cur[dig]
				cur[dig] = pos + 1
				b[pos] = p
				r := rcur[dig]
				if pos >= rbound[dig] {
					for int(pos) >= bounds[r+1] {
						r++
					}
					rcur[dig] = r
					rbound[dig] = int32(bounds[r+1])
				}
				nh[r][byte(p.key>>shift2)]++
			}
		})
		a, b = b, a
	}

	// One gather permutation of the elements, then a parallel copy
	// back. The two barriers are load-bearing: copying vs while
	// another worker still gathers from it would race.
	out := make([]T, n)
	runParallel(W, func(w int) {
		for i := bounds[w]; i < bounds[w+1]; i++ {
			out[i] = vs[a[i].idx]
		}
	})
	runParallel(W, func(w int) {
		copy(vs[bounds[w]:bounds[w+1]], out[bounds[w]:bounds[w+1]])
	})

	if !kc.KeyExact() {
		fixupTies(kc, vs, a, bounds, W)
	}
}

// fixupTies re-sorts runs of equal truncated keys with the comparator
// for inexact-key codecs (Rec100). Within a run the elements are in
// original order (the pair order is the stable order), so a stable
// sort keeps the overall result stable. Each worker owns the runs that
// *start* in its range — a run crossing a boundary belongs wholly to
// the worker it starts in, and the right-hand worker skips past it —
// so the runs processed are disjoint and the pass is race-free.
func fixupTies[T any](kc elem.KeyedCodec[T], vs []T, a []keyIdx, bounds []int, workers int) {
	n := len(vs)
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
				slices.SortStableFunc(vs[i:j], cmp[T](kc))
			}
			i = j
		}
	})
}
