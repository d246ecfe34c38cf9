// Package psort is the shared-memory parallel sort used *inside* one
// PE, standing in for the MCSTL/libstdc++ parallel mode the paper uses
// ("To sort and to merge data internally we used the parallel mode of
// the STL implementation of GCC 4.3.1"), per §IV-E "Hierarchical
// Parallelism".
//
// Key-normalized codecs (elem.KeyedCodec) are sorted by a parallel
// radix engine over (key, original index) pairs with two
// interchangeable paths — a shared-histogram LSD scatter (lsd.go) and
// an in-place American-flag MSD (msd.go) that needs roughly half the
// scratch; see Path. Closure-only codecs keep the paper-shaped
// pipeline one level down the hierarchy: sort core-local chunks, split
// them exactly with multiway selection, merge the parts in parallel.
//
// Every path, for every worker count, produces the result of a stable
// sort under the codec order, bit for bit: the radix engines sort the
// pair array into the unique (key, index) order and permute the
// elements once; the closure pipeline uses stable chunk sorts,
// (chunk, position) tie-breaks in selection and chunk-index
// tie-breaks in the merges.
package psort

import (
	"runtime"
	"slices"
	"sync"

	"demsort/internal/elem"
	"demsort/internal/mselect"
	"demsort/internal/xmerge"
)

// DefaultWorkers returns the default in-node sorting parallelism:
// GOMAXPROCS clamped to 8 (the paper's nodes have 8 cores, and every
// simulated PE runs its own sort — an unclamped fan-out of P×cores
// goroutines oversubscribes the host without helping).
func DefaultWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Sort sorts vs in place using up to workers goroutines, on the LSD
// path for keyed codecs. See SortPath.
func Sort[T any](c elem.Codec[T], vs []T, workers int) {
	SortPath(c, vs, workers, PathLSD)
}

// SortPath sorts vs in place using up to workers goroutines and the
// requested radix path for keyed codecs (callers that must respect a
// memory budget pick by ScratchBytes). Closure-only codecs ignore path and use the
// stable chunk-sort/select/merge pipeline. The result equals a stable
// sort under the codec order for every worker count and every path.
func SortPath[T any](c elem.Codec[T], vs []T, workers int, path Path) {
	n := len(vs)
	if n < 2 {
		return
	}
	kc, keyed := elem.Codec[T](c).(elem.KeyedCodec[T])
	if !keyed {
		sortClosure(c, vs, workers)
		return
	}
	if n < radixMinLen {
		slices.SortStableFunc(vs, cmp[T](c))
		return
	}
	w := radixWorkers(n, workers)
	if path == PathMSD {
		radixMSD(kc, vs, w)
	} else {
		radixLSD(kc, vs, w)
	}
}

// sortClosure is the comparator pipeline for codecs without normalized
// keys: stable-sort `workers` chunks concurrently, split them exactly
// with multiway selection, merge the parts in parallel. One join per
// sort (not per digit), so the old small-n guard still holds.
func sortClosure[T any](c elem.Codec[T], vs []T, workers int) {
	n := len(vs)
	if workers <= 1 || n < 4*workers || n < closureParMin {
		slices.SortStableFunc(vs, cmp(c))
		return
	}
	out := make([]T, n)
	// 1. Sort `workers` chunks concurrently.
	chunks := make([][]T, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := n * w / workers
		hi := n * (w + 1) / workers
		chunks[w] = vs[lo:hi]
		wg.Add(1)
		go func(part []T) {
			defer wg.Done()
			slices.SortStableFunc(part, cmp(c))
		}(chunks[w])
	}
	wg.Wait()

	// 2. Exact equal-size splits of the sorted chunks.
	acc := mselect.SliceAccessor[T](chunks)
	cuts := make([][]int64, workers+1)
	cuts[0] = make([]int64, workers)
	cuts[workers] = make([]int64, workers)
	for w := range chunks {
		cuts[workers][w] = int64(len(chunks[w]))
	}
	for i := 1; i < workers; i++ {
		cuts[i] = mselect.Select[T](c, acc, int64(n)*int64(i)/int64(workers))
	}

	// 3. Merge each output part concurrently into the scratch buffer.
	for w := 0; w < workers; w++ {
		lo := n * w / workers
		hi := n * (w + 1) / workers
		pieces := make([][]T, workers)
		for q := 0; q < workers; q++ {
			pieces[q] = chunks[q][cuts[w][q]:cuts[w+1][q]]
		}
		wg.Add(1)
		go func(dst []T, pieces [][]T) {
			defer wg.Done()
			xmerge.AppendMerge[T](c, dst[:0], pieces)
		}(out[lo:hi], pieces)
	}
	wg.Wait()
	copy(vs, out)
}

// cmp converts a codec order into a three-way comparison.
func cmp[T any](c elem.Codec[T]) func(a, b T) int {
	return func(a, b T) int {
		switch {
		case c.Less(a, b):
			return -1
		case c.Less(b, a):
			return 1
		default:
			return 0
		}
	}
}
