package psort

import (
	"math/rand/v2"
	"slices"
	"testing"

	"demsort/internal/elem"
)

// closureKV is KV16's order without the KeyedCodec extension: the
// comparator-only fallback path.
type closureKV struct{}

func (closureKV) Size() int                    { return 16 }
func (closureKV) Encode(d []byte, v elem.KV16) { elem.KV16Codec{}.Encode(d, v) }
func (closureKV) Decode(s []byte) elem.KV16    { return elem.KV16Codec{}.Decode(s) }
func (closureKV) Less(a, b elem.KV16) bool     { return a.Key < b.Key }

// adversarialKV builds boundary-pattern keys: top bit set, all-ones,
// runs of equal keys, already/reverse sorted stretches.
func adversarialKV(rng *rand.Rand, n int) []elem.KV16 {
	vs := make([]elem.KV16, n)
	for i := range vs {
		var k uint64
		switch rng.Uint64N(6) {
		case 0:
			k = 1<<63 | rng.Uint64N(16)
		case 1:
			k = ^uint64(0) - rng.Uint64N(4)
		case 2:
			k = rng.Uint64N(8)
		case 3:
			k = uint64(i) // sorted stretch
		case 4:
			k = uint64(n - i) // reverse stretch
		default:
			k = rng.Uint64()
		}
		vs[i] = elem.KV16{Key: k, Val: uint64(i)}
	}
	return vs
}

// TestRadixMatchesStableSort: the radix engine must reproduce a stable
// comparison sort bit-for-bit, payloads included.
func TestRadixMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	for _, n := range []int{radixMinLen, 1000, 1 << 14} {
		vs := adversarialKV(rng, n)
		want := slices.Clone(vs)
		slices.SortStableFunc(want, cmp[elem.KV16](kvc))
		for _, workers := range []int{1, 4} {
			got := slices.Clone(vs)
			Sort[elem.KV16](kvc, got, workers)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d workers=%d: radix differs from stable sort", n, workers)
			}
		}
	}
}

// TestRadixRec100TailTies: shared 8-byte prefixes force the truncated
// key to tie so the comparator fix-up must order the 2-byte tails.
func TestRadixRec100TailTies(t *testing.T) {
	rc := elem.Rec100Codec{}
	rng := rand.New(rand.NewPCG(23, 24))
	n := 4096
	vs := make([]elem.Rec100, n)
	for i := range vs {
		var r elem.Rec100
		// Three shared prefixes; tails and payload vary.
		copy(r[:8], []byte{0xAB, 0, 0, 0, 0, 0, 0, byte(rng.Uint64N(3))})
		r[8] = byte(rng.Uint64())
		r[9] = byte(rng.Uint64())
		for j := 10; j < 100; j++ {
			r[j] = byte(i >> (8 * (j % 3)))
		}
		vs[i] = r
	}
	want := slices.Clone(vs)
	slices.SortStableFunc(want, cmp[elem.Rec100](rc))
	got := slices.Clone(vs)
	Sort[elem.Rec100](rc, got, 2)
	if !slices.Equal(got, want) {
		t.Fatal("radix with tail fix-up differs from stable sort")
	}
}

// TestSortClosureCodec: a codec without normalized keys goes down the
// comparator fallback and must still sort correctly at every worker
// count.
func TestSortClosureCodec(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 26))
	for _, workers := range []int{1, 4} {
		vs := randKV(rng, 1<<13, 1<<40)
		want := sortedRef(vs)
		Sort[elem.KV16](closureKV{}, vs, workers)
		if !keysEqual(vs, want) {
			t.Fatalf("workers=%d: closure codec mis-sorted", workers)
		}
	}
}

// TestSortStableAcrossWorkerCounts: psort output now equals a stable
// sort for any worker count — payloads of equal keys keep their
// original order.
func TestSortStableAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 28))
	base := randKV(rng, 1<<14, 64) // duplicate-heavy
	want := slices.Clone(base)
	slices.SortStableFunc(want, cmp[elem.KV16](kvc))
	for _, workers := range []int{1, 2, 3, 5, 8} {
		got := slices.Clone(base)
		Sort[elem.KV16](kvc, got, workers)
		if !slices.Equal(got, want) {
			t.Fatalf("workers=%d: not the stable-sort order", workers)
		}
	}
}

func TestDefaultWorkersClamp(t *testing.T) {
	w := DefaultWorkers()
	if w < 1 || w > 8 {
		t.Fatalf("DefaultWorkers() = %d, want 1..8", w)
	}
}

// BenchmarkSortKeyVsComparator is the key-vs-comparator microbench:
// the same KV16 data through the radix path (KV16Codec) and the
// comparator fallback (closureKV).
func BenchmarkSortKeyVsComparator(b *testing.B) {
	rng := rand.New(rand.NewPCG(31, 32))
	base := randKV(rng, 1<<20, 1<<62)
	buf := make([]elem.KV16, len(base))
	b.Run("KV16/key", func(b *testing.B) {
		b.SetBytes(int64(len(base)) * 16)
		for i := 0; i < b.N; i++ {
			copy(buf, base)
			Sort[elem.KV16](kvc, buf, 1)
		}
	})
	b.Run("KV16/comparator", func(b *testing.B) {
		b.SetBytes(int64(len(base)) * 16)
		for i := 0; i < b.N; i++ {
			copy(buf, base)
			Sort[elem.KV16](closureKV{}, buf, 1)
		}
	})
}
