package psort

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"demsort/internal/elem"
)

// The conformance matrix: every adversarial key distribution × every
// worker count 1..8 × both radix engines must be byte-identical to a
// stable sequential sort under the codec order. n is chosen large
// enough that radixWorkers does not clamp the higher worker counts
// away (n/parMinPerWorker >= 8), so the full parallel machinery is
// exercised, including the per-digit re-count pass and the MSD work
// queue — and the whole matrix runs under -race in CI.

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
		// exercises the skip mask on both engines and a 256-way fan-out
		// with nothing below it on the MSD path.
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
		for _, path := range []Path{PathLSD, PathMSD} {
			for workers := 1; workers <= 8; workers++ {
				t.Run(fmt.Sprintf("%s/%v/w%d", name, path, workers), func(t *testing.T) {
					got := slices.Clone(base)
					SortPath[elem.KV16](kvc, got, workers, path)
					if !slices.Equal(got, want) {
						t.Fatal("output differs from the stable sequential sort")
					}
				})
			}
		}
	}
}

// TestConformanceMatrixRec100: inexact keys — shared 8-byte prefixes
// tie on the truncated key and force the comparator fix-up to order
// the 2-byte tails, on both engines, at every worker count.
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
	for _, path := range []Path{PathLSD, PathMSD} {
		for workers := 1; workers <= 8; workers++ {
			t.Run(fmt.Sprintf("%v/w%d", path, workers), func(t *testing.T) {
				got := slices.Clone(base)
				SortPath[elem.Rec100](rc, got, workers, path)
				if !slices.Equal(got, want) {
					t.Fatal("output differs from the stable sequential sort")
				}
			})
		}
	}
}

// TestScratchBytesMatchesDispatch pins the accounting contract: the
// charge core computes via ScratchBytes must reflect the dispatch
// rules (zero below the radix cutoff, MSD roughly half of LSD, worker
// clamp applied identically).
func TestScratchBytesMatchesDispatch(t *testing.T) {
	if got := ScratchBytes(PathLSD, 16, radixMinLen-1, 8); got != 0 {
		t.Fatalf("below cutoff: ScratchBytes = %d, want 0", got)
	}
	n := 1 << 20
	lsd := ScratchBytes(PathLSD, 16, n, 8)
	msd := ScratchBytes(PathMSD, 16, n, 8)
	if wantLSD := int64(2*n*pairBytes) + 8*histBytes + 8*8*256*4 + int64(n*16); lsd != wantLSD {
		t.Fatalf("LSD scratch = %d, want %d", lsd, wantLSD)
	}
	if wantMSD := int64(n*pairBytes) + 8*histBytes; msd != wantMSD {
		t.Fatalf("MSD scratch = %d, want %d", msd, wantMSD)
	}
	if msd*2 > lsd {
		t.Fatalf("MSD scratch %d not ≤ half of LSD scratch %d", msd, lsd)
	}
	// Worker clamp: a small input cannot be charged 8 histogram blocks.
	small := radixMinLen
	if got, want := ScratchBytes(PathMSD, 16, small, 8), int64(small*pairBytes)+histBytes; got != want {
		t.Fatalf("clamped scratch = %d, want %d", got, want)
	}
}
