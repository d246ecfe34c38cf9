package psort

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"demsort/internal/elem"
)

// The conformance matrix: every adversarial key distribution × every
// worker count 1..8 through the radix engine must be byte-identical to
// a stable sequential sort under the codec order. n is chosen large
// enough that radixWorkers does not clamp the higher worker counts
// away (n/parMinPerWorker >= 8), so the full parallel machinery is
// exercised, including the parallel build pass, the bucket work queue
// and the tie fix-up — and the whole matrix runs under -race in CI.
// Subtests name the engine: <distribution>/msd/w<workers>.

const confN = 8 * parMinPerWorker

func kvDistributions(rng *rand.Rand) map[string][]elem.KV16 {
	mk := func(f func(i int) uint64) []elem.KV16 {
		vs := make([]elem.KV16, confN)
		for i := range vs {
			vs[i] = elem.KV16{Key: f(i), Val: uint64(i)}
		}
		return vs
	}
	return map[string][]elem.KV16{
		"random":    mk(func(int) uint64 { return rng.Uint64() }),
		"all-equal": mk(func(int) uint64 { return 0xDEAD }),
		// One hot byte: every digit uniform except one in the middle —
		// exercises the skip mask and a 256-way fan-out with nothing
		// below it.
		"one-hot-byte": mk(func(int) uint64 { return 0x11_00_00_00_00_00_00_22 | rng.Uint64N(256)<<32 }),
		"pre-sorted":   mk(func(i int) uint64 { return uint64(i) }),
		"reverse":      mk(func(i int) uint64 { return uint64(confN - i) }),
		// Few distinct keys: long equal runs stress stability and the
		// MSD sort-by-index base case.
		"dup-heavy": mk(func(int) uint64 { return rng.Uint64N(7) }),
	}
}

func TestConformanceMatrixKV16(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	for name, base := range kvDistributions(rng) {
		want := slices.Clone(base)
		slices.SortStableFunc(want, cmp[elem.KV16](kvc))
		for workers := 1; workers <= 8; workers++ {
			t.Run(fmt.Sprintf("%s/msd/w%d", name, workers), func(t *testing.T) {
				got := slices.Clone(base)
				Sort[elem.KV16](kvc, got, workers)
				if !slices.Equal(got, want) {
					t.Fatal("output differs from the stable sequential sort")
				}
			})
		}
	}
}

// TestConformanceMatrixRec100: inexact keys — shared 8-byte prefixes
// tie on the truncated key and force the comparator fix-up to order
// the 2-byte tails, at every worker count.
func TestConformanceMatrixRec100(t *testing.T) {
	rc := elem.Rec100Codec{}
	rng := rand.New(rand.NewPCG(43, 44))
	base := make([]elem.Rec100, confN)
	for i := range base {
		var r elem.Rec100
		// Four shared prefixes, random tails, payload identifies origin.
		r[7] = byte(rng.Uint64N(4))
		r[8] = byte(rng.Uint64())
		r[9] = byte(rng.Uint64())
		for j := 10; j < 14; j++ {
			r[j] = byte(i >> (8 * (j - 10)))
		}
		base[i] = r
	}
	want := slices.Clone(base)
	slices.SortStableFunc(want, cmp[elem.Rec100](rc))
	for workers := 1; workers <= 8; workers++ {
		t.Run(fmt.Sprintf("msd/w%d", workers), func(t *testing.T) {
			got := slices.Clone(base)
			Sort[elem.Rec100](rc, got, workers)
			if !slices.Equal(got, want) {
				t.Fatal("output differs from the stable sequential sort")
			}
		})
	}
}

// TestScratchBytesMatchesDispatch pins the accounting contract: the
// charge run formation computes via ScratchBytes must reflect the
// dispatch rules (zero below the radix cutoff, one pair buffer plus a
// histogram block per worker, the worker clamp applied identically).
func TestScratchBytesMatchesDispatch(t *testing.T) {
	if got := ScratchBytes(radixMinLen-1, 8); got != 0 {
		t.Fatalf("below cutoff: ScratchBytes = %d, want 0", got)
	}
	n := 1 << 20
	if got, want := ScratchBytes(n, 8), int64(n*pairBytes)+8*histBytes; got != want {
		t.Fatalf("scratch = %d, want %d", got, want)
	}
	// Worker clamp: a small input cannot be charged 8 histogram blocks.
	small := radixMinLen
	if got, want := ScratchBytes(small, 8), int64(small*pairBytes)+histBytes; got != want {
		t.Fatalf("clamped scratch = %d, want %d", got, want)
	}
	mid := 3 * parMinPerWorker
	if got, want := ScratchBytes(mid, 8), int64(mid*pairBytes)+3*histBytes; got != want {
		t.Fatalf("clamped scratch at %d = %d, want %d", mid, got, want)
	}
}

// orderMatchesSort checks that base gathered by psort.Order's
// permutation is Sort's output bit for bit, and that Order left base as
// it was.
func orderMatchesSort[T comparable](t *testing.T, c elem.Codec[T], base []T, workers int) {
	t.Helper()
	want, vs := slices.Clone(base), slices.Clone(base)
	Sort(c, want, workers)
	perm := make([]int32, len(vs)+3) // Order fills perm[:len(vs)]
	Order(c, vs, perm, workers)
	if !slices.Equal(vs, base) {
		t.Fatal("Order moved elements")
	}
	for i, p := range perm[:len(vs)] {
		if vs[p] != want[i] {
			t.Fatalf("gathered element %d differs from Sort's output", i)
		}
	}
}

// TestConformanceOrderGathersSort: Order's permutation, gathered, is
// Sort's output bit for bit — over the conformance distributions, Rec100
// records that share their 8-byte key prefix, every worker count 1..8,
// chunks below radixMinLen and a closure-only codec.
func TestConformanceOrderGathersSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 46))
	recs := make([]elem.Rec100, confN)
	for i := range recs {
		recs[i][7] = byte(rng.Uint64N(4))
		recs[i][8], recs[i][9] = byte(rng.Uint64()), byte(rng.Uint64N(3))
		recs[i][10], recs[i][11] = byte(i), byte(i>>8)
	}
	for workers := 1; workers <= 8; workers++ {
		for name, base := range kvDistributions(rng) {
			t.Run(fmt.Sprintf("%s/w%d", name, workers), func(t *testing.T) {
				orderMatchesSort[elem.KV16](t, kvc, base, workers)
			})
		}
		t.Run(fmt.Sprintf("rec100-shared-prefix/w%d", workers), func(t *testing.T) {
			orderMatchesSort[elem.Rec100](t, elem.Rec100Codec{}, recs, workers)
		})
	}
	for _, n := range []int{0, 1, 2, radixMinLen - 1, radixMinLen} {
		t.Run(fmt.Sprintf("short/n%d", n), func(t *testing.T) {
			orderMatchesSort[elem.KV16](t, kvc, randKV(rng, n, 5), 4)
			orderMatchesSort[elem.Rec100](t, elem.Rec100Codec{}, recs[:n], 4)
		})
	}
	t.Run("closure-only", func(t *testing.T) {
		orderMatchesSort[elem.KV16](t, closureKV{}, randKV(rng, 2*radixMinLen, 9), 4)
	})
}
