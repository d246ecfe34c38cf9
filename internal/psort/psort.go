// Package psort is the shared-memory parallel sort used *inside* one
// PE, standing in for the MCSTL/libstdc++ parallel mode the paper uses
// ("To sort and to merge data internally we used the parallel mode of
// the STL implementation of GCC 4.3.1"), per §IV-E "Hierarchical
// Parallelism".
//
// Key-normalized codecs (elem.KeyedCodec) of at least radixMinLen
// elements are sorted by one parallel radix engine over (key, original
// index) pairs: an in-place American-flag MSD (msd.go) whose scratch is
// one pair buffer and the digit histograms (ScratchBytes); plan.go
// records why it is the only engine. Shorter inputs and closure-only
// codecs (no product codec is one) take slices.SortStableFunc.
//
// Every path, for every worker count, produces the result of a stable
// sort under the codec order, bit for bit: the radix engine sorts the
// pair array into the unique (key, index) order. Sort then permutes the
// elements once, in place; Order hands the order out and moves nothing
// (run formation gathers a run by it into its send buffers).
package psort

import (
	"runtime"
	"slices"

	"demsort/internal/elem"
)

// MaxWorkers caps the in-node sorting parallelism: the paper's nodes
// have 8 cores, and every simulated PE runs its own sort — an unclamped
// fan-out of P×cores goroutines oversubscribes the host without helping.
const MaxWorkers = 8

// DefaultWorkers returns the default in-node sorting parallelism:
// GOMAXPROCS clamped to MaxWorkers.
func DefaultWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > MaxWorkers {
		w = MaxWorkers
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Sort sorts vs in place using up to workers goroutines: keyed codecs
// with the radix engine, drawing ScratchBytes of pooled scratch (callers
// that must respect a memory budget charge that), the rest with a
// stable comparison sort that ignores workers. The result equals a
// stable sort under the codec order for every worker count.
func Sort[T any](c elem.Codec[T], vs []T, workers int) {
	kc, keyed := elem.Codec[T](c).(elem.KeyedCodec[T])
	if !keyed || len(vs) < radixMinLen {
		slices.SortStableFunc(vs, cmp(c))
		return
	}
	radixMSD(kc, vs, nil, radixWorkers(len(vs), workers))
}

// Order is Sort without moving an element: it fills perm[:len(vs)] so
// that vs[perm[i]] is element i of Sort's result, by Sort's paths and
// scratch (ScratchBytes).
func Order[T any](c elem.Codec[T], vs []T, perm []int32, workers int) {
	perm = perm[:len(vs)]
	kc, keyed := elem.Codec[T](c).(elem.KeyedCodec[T])
	if !keyed || len(vs) < radixMinLen {
		checkLen(len(vs))
		for i := range perm {
			perm[i] = int32(i)
		}
		sortIndex(vs, perm, cmp(c))
		return
	}
	radixMSD(kc, vs, perm, radixWorkers(len(vs), workers))
}

// sortIndex stably sorts positions idx of vs by their elements.
func sortIndex[T any](vs []T, idx []int32, cmp func(a, b T) int) {
	slices.SortStableFunc(idx, func(x, y int32) int { return cmp(vs[x], vs[y]) })
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
