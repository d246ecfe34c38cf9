package xmerge

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"demsort/internal/elem"
)

var u64c = elem.U64Codec{}

func randomSortedSeqs(rng *rand.Rand, k, maxLen, keyRange int) ([][]elem.U64, []elem.U64) {
	seqs := make([][]elem.U64, k)
	var all []elem.U64
	for i := range seqs {
		n := int(rng.Uint64N(uint64(maxLen + 1)))
		seqs[i] = make([]elem.U64, n)
		for j := range seqs[i] {
			seqs[i][j] = elem.U64(rng.Uint64N(uint64(keyRange)))
		}
		slices.Sort(seqs[i])
		all = append(all, seqs[i]...)
	}
	slices.Sort(all)
	return seqs, all
}

func TestMergeEqualsSortedUnion(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, k := range []int{0, 1, 2, 3, 4, 9, 20} {
		seqs, all := randomSortedSeqs(rng, k, 40, 100)
		got := Merge[elem.U64](u64c, seqs)
		if !slices.Equal(got, all) {
			t.Fatalf("k=%d: merged output differs", k)
		}
	}
}

func TestMergeManyDuplicates(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	seqs, all := randomSortedSeqs(rng, 6, 100, 3) // keys only 0..2
	got := Merge[elem.U64](u64c, seqs)
	if !slices.Equal(got, all) {
		t.Fatal("merge with heavy duplicates differs from sorted union")
	}
}

func TestAppendMergePreservesPrefix(t *testing.T) {
	dst := []elem.U64{7}
	got := AppendMerge[elem.U64](u64c, dst, [][]elem.U64{{1, 3}, {2}})
	want := []elem.U64{7, 1, 2, 3}
	if !slices.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMergeEmptyInputs(t *testing.T) {
	if got := Merge[elem.U64](u64c, nil); len(got) != 0 {
		t.Fatal("merging nothing should give empty output")
	}
	if got := Merge[elem.U64](u64c, [][]elem.U64{{}, {}, {}}); len(got) != 0 {
		t.Fatal("merging empties should give empty output")
	}
}

// streamOf serves seq to MergeStream in blocks of blk elements.
func streamOf[T any](seqs [][]T, blk int) func(i int) []T {
	off := make([]int, len(seqs))
	return func(i int) []T {
		lo := off[i]
		off[i] = min(lo+blk, len(seqs[i]))
		return seqs[i][lo:off[i]]
	}
}

// TestMergeStreamEqualsMerge checks the streaming merge against the
// in-memory one — same order, same tie-breaking by stream index — for
// exact keys, the comparator fallback and Rec100's prefix keys, with
// input blocks and output slices of sizes that do not divide anything.
func TestMergeStreamEqualsMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, k := range []int{0, 1, 2, 3, 9, 20} {
		for _, blk := range []int{1, 7, 64} {
			kv := sortedKVSeqs(rng, k, 60, 8)
			for name, c := range map[string]elem.Codec[elem.KV16]{"keyed": kvc, "closure": closureKV{}} {
				var got []elem.KV16
				err := MergeStream(c, k, 5, streamOf(kv, blk), func(out []elem.KV16) error {
					if len(out) == 0 || len(out) > 5 {
						t.Fatalf("emit of %d elements, outLen 5", len(out))
					}
					got = append(got, out...)
					return nil
				})
				if err != nil || !slices.Equal(got, Merge(c, kv)) {
					t.Fatalf("%s k=%d blk=%d: err %v, streamed merge differs from Merge", name, k, blk, err)
				}
			}
		}
	}
	var recs [][]elem.Rec100
	for s := 0; s < 3; s++ { // equal 8-byte key prefixes, order decided by bytes 8-9
		seq := make([]elem.Rec100, 5)
		for i := range seq {
			seq[i][8], seq[i][9] = byte(i), byte(3-s)
		}
		recs = append(recs, seq)
	}
	var got []elem.Rec100
	MergeStream[elem.Rec100](elem.Rec100Codec{}, 3, 4, streamOf(recs, 2), func(out []elem.Rec100) error {
		got = append(got, out...)
		return nil
	})
	if !slices.Equal(got, Merge[elem.Rec100](elem.Rec100Codec{}, recs)) {
		t.Fatal("prefix-key ties merged differently from Merge")
	}
}

func TestMergeStreamStopsOnEmitError(t *testing.T) {
	seqs := [][]elem.U64{{1, 3, 5, 7}, {2, 4, 6, 8}}
	calls, boom := 0, errors.New("sink full")
	err := MergeStream[elem.U64](u64c, 2, 2, streamOf(seqs, 2), func([]elem.U64) error {
		calls++
		return boom
	})
	if err != boom || calls != 1 {
		t.Fatalf("err %v after %d emits, want the emit error after 1", err, calls)
	}
}

func BenchmarkMerge8Way(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 5))
	seqs, _ := randomSortedSeqs(rng, 8, 1<<14, 1<<30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Merge[elem.U64](u64c, seqs)
	}
}
