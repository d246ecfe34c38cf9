package xmerge

import (
	"math/rand/v2"
	"slices"
	"testing"

	"demsort/internal/elem"
)

var kvc = elem.KV16Codec{}

// closureKV is KV16's order without the KeyedCodec extension,
// exercising the comparator fallback merge loop.
type closureKV struct{}

func (closureKV) Size() int                    { return 16 }
func (closureKV) Encode(d []byte, v elem.KV16) { elem.KV16Codec{}.Encode(d, v) }
func (closureKV) Decode(s []byte) elem.KV16    { return elem.KV16Codec{}.Decode(s) }
func (closureKV) Less(a, b elem.KV16) bool     { return a.Key < b.Key }

func sortedKVSeqs(rng *rand.Rand, k, maxLen int, keyRange uint64) [][]elem.KV16 {
	seqs := make([][]elem.KV16, k)
	val := uint64(0)
	for i := range seqs {
		n := int(rng.Uint64N(uint64(maxLen + 1)))
		seqs[i] = make([]elem.KV16, n)
		for j := range seqs[i] {
			seqs[i][j] = elem.KV16{Key: rng.Uint64N(keyRange), Val: val}
			val++
		}
		slices.SortStableFunc(seqs[i], func(a, b elem.KV16) int {
			switch {
			case a.Key < b.Key:
				return -1
			case a.Key > b.Key:
				return 1
			default:
				return 0
			}
		})
	}
	return seqs
}

// TestKeyedMergeMatchesFallback: the keyed loop and the comparator
// fallback must produce identical output — values AND payload order
// (both tie-break equal keys by stream index).
func TestKeyedMergeMatchesFallback(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	for _, k := range []int{3, 4, 8, 17} {
		for _, keyRange := range []uint64{4, 1 << 40} { // duplicate-heavy and sparse
			seqs := sortedKVSeqs(rng, k, 120, keyRange)
			keyed := AppendMerge[elem.KV16](kvc, nil, seqs)
			fallback := AppendMerge[elem.KV16](closureKV{}, nil, seqs)
			if !slices.Equal(keyed, fallback) {
				t.Fatalf("k=%d range=%d: keyed and fallback merges disagree", k, keyRange)
			}
		}
	}
}

// TestKeyedMergeHighBitKeys: keys with the top bit set must merge in
// unsigned order through the normalized-key tree.
func TestKeyedMergeHighBitKeys(t *testing.T) {
	seqs := [][]elem.KV16{
		{{Key: 1}, {Key: 1 << 63}},
		{{Key: 42}, {Key: ^uint64(0)}},
	}
	got := AppendMerge[elem.KV16](kvc, nil, seqs)
	want := []uint64{1, 42, 1 << 63, ^uint64(0)}
	for i, v := range got {
		if v.Key != want[i] {
			t.Fatalf("pos %d: key %#x want %#x", i, v.Key, want[i])
		}
	}
}

// TestRec100MergeTailTies: streams whose truncated keys tie must fall
// back to the full 10-byte comparison.
func TestRec100MergeTailTies(t *testing.T) {
	rc := elem.Rec100Codec{}
	mk := func(tail byte) elem.Rec100 {
		var r elem.Rec100
		copy(r[:8], "PREFIX00")
		r[9] = tail
		return r
	}
	seqs := [][]elem.Rec100{
		{mk(3), mk(9)},
		{mk(1), mk(5)},
	}
	got := AppendMerge[elem.Rec100](rc, nil, seqs)
	for i := 1; i < len(got); i++ {
		if rc.Less(got[i], got[i-1]) {
			t.Fatalf("tail ties merged out of order at %d", i)
		}
	}
	if got[0][9] != 1 || got[1][9] != 3 || got[2][9] != 5 || got[3][9] != 9 {
		t.Fatalf("tails %d %d %d %d", got[0][9], got[1][9], got[2][9], got[3][9])
	}
}

// BenchmarkMergeKeyVsComparator is the merge half of the
// key-vs-comparator microbench: identical KV16 streams through the
// key-inline tree and the comparator fallback.
func BenchmarkMergeKeyVsComparator(b *testing.B) {
	rng := rand.New(rand.NewPCG(45, 46))
	seqs := sortedKVSeqs(rng, 16, 1<<14, 1<<62)
	total := 0
	for _, s := range seqs {
		total += len(s)
	}
	dst := make([]elem.KV16, 0, total)
	b.Run("KV16/key", func(b *testing.B) {
		b.SetBytes(int64(total) * 16)
		for i := 0; i < b.N; i++ {
			AppendMerge[elem.KV16](kvc, dst[:0], seqs)
		}
	})
	b.Run("KV16/comparator", func(b *testing.B) {
		b.SetBytes(int64(total) * 16)
		for i := 0; i < b.N; i++ {
			AppendMerge[elem.KV16](closureKV{}, dst[:0], seqs)
		}
	})
}
