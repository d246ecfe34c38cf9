package xmerge

import (
	"errors"
	"fmt"
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
		got := AppendMerge[elem.U64](u64c, nil, seqs)
		if !slices.Equal(got, all) {
			t.Fatalf("k=%d: merged output differs", k)
		}
	}
}

func TestMergeManyDuplicates(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	seqs, all := randomSortedSeqs(rng, 6, 100, 3) // keys only 0..2
	got := AppendMerge[elem.U64](u64c, nil, seqs)
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
	if got := AppendMerge[elem.U64](u64c, nil, nil); len(got) != 0 {
		t.Fatal("merging nothing should give empty output")
	}
	if got := AppendMerge[elem.U64](u64c, nil, [][]elem.U64{{}, {}, {}}); len(got) != 0 {
		t.Fatal("merging empties should give empty output")
	}
}

// streamOf serves seq to MergeBlocks in blocks of blk elements.
func streamOf[T any](seqs [][]T, blk int) func(i int) []T {
	off := make([]int, len(seqs))
	return func(i int) []T {
		lo := off[i]
		off[i] = min(lo+blk, len(seqs[i]))
		return seqs[i][lo:off[i]]
	}
}

// stableMerged is the merge oracle: a stable sort of the sequences'
// concatenation in sequence order, which orders equal elements by
// sequence index — exactly the merge's tie rule.
func stableMerged[T any](c elem.Codec[T], seqs [][]T) []T {
	all := slices.Concat(seqs...)
	slices.SortStableFunc(all, func(a, b T) int {
		switch {
		case c.Less(a, b):
			return -1
		case c.Less(b, a):
			return 1
		}
		return 0
	})
	return all
}

// streamed runs MergeBlocks over seqs in input blocks of blk elements
// and output slices of outLen, all into one buffer, checking every
// slice's length.
func streamed[T any](t *testing.T, c elem.Codec[T], seqs [][]T, blk, outLen int) []T {
	t.Helper()
	var got []T
	buf := make([]T, outLen)
	err := MergeBlocks(c, len(seqs), buf, streamOf(seqs, blk), func(out []T) ([]T, error) {
		if len(out) == 0 || len(out) > outLen {
			t.Fatalf("emit of %d elements, outLen %d", len(out), outLen)
		}
		got = append(got, out...)
		return buf, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestMergeStreamEqualsMerge checks both entries, the streaming merge
// and the in-memory one, against a stable sort — same order, ties
// broken by stream index — for exact keys, the comparator fallback and
// Rec100's prefix keys, with input blocks and output slices of sizes
// that do not divide anything, and with one, two and empty streams.
func TestMergeStreamEqualsMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	a, b := sortedKVSeqs(rng, 1, 60, 8)[0], sortedKVSeqs(rng, 1, 60, 8)[0]
	fixed := map[string][][]elem.KV16{
		"one":       {a},
		"two":       {a, b},
		"empties":   {{}, a, {}, b, {}},
		"all-empty": {{}, {}},
	}
	for _, k := range []int{0, 1, 2, 3, 9, 20} {
		fixed[fmt.Sprintf("k=%d", k)] = sortedKVSeqs(rng, k, 60, 8)
	}
	for name, kv := range fixed {
		for _, blk := range []int{1, 7, 64} {
			for cname, c := range map[string]elem.Codec[elem.KV16]{"keyed": kvc, "closure": closureKV{}} {
				want := stableMerged(c, kv)
				if got := streamed(t, c, kv, blk, 5); !slices.Equal(got, want) {
					t.Fatalf("%s %s blk=%d: MergeBlocks differs from the stable sort", cname, name, blk)
				}
				if got := AppendMerge(c, nil, kv); !slices.Equal(got, want) {
					t.Fatalf("%s %s: AppendMerge differs from the stable sort", cname, name)
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
	want := stableMerged[elem.Rec100](elem.Rec100Codec{}, recs)
	if !slices.Equal(streamed[elem.Rec100](t, elem.Rec100Codec{}, recs, 2, 4), want) ||
		!slices.Equal(AppendMerge[elem.Rec100](elem.Rec100Codec{}, nil, recs), want) {
		t.Fatal("prefix-key ties merged differently from the stable sort")
	}
}

func TestMergeStreamStopsOnEmitError(t *testing.T) {
	seqs := [][]elem.U64{{1, 3, 5, 7}, {2, 4, 6, 8}}
	calls, boom := 0, errors.New("sink full")
	out := make([]elem.U64, 2)
	err := MergeBlocks[elem.U64](u64c, 2, out, streamOf(seqs, 2), func([]elem.U64) ([]elem.U64, error) {
		calls++
		return out, boom
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
		AppendMerge[elem.U64](u64c, nil, seqs)
	}
}

// sortedRecSeqs returns k sorted Rec100 sequences of n/k random
// records each.
func sortedRecSeqs(rng *rand.Rand, k, n int) [][]elem.Rec100 {
	rc := elem.Rec100Codec{}
	seqs := make([][]elem.Rec100, k)
	for i := range seqs {
		seqs[i] = make([]elem.Rec100, n/k)
		for j := range seqs[i] {
			for b := 0; b < 10; b += 2 {
				v := rng.Uint32()
				seqs[i][j][b], seqs[i][j][b+1] = byte(v), byte(v>>8)
			}
		}
		slices.SortFunc(seqs[i], func(a, b elem.Rec100) int {
			switch {
			case rc.Less(a, b):
				return -1
			case rc.Less(b, a):
				return 1
			}
			return 0
		})
	}
	return seqs
}

// BenchmarkMergeRec100 sizes the one merge loop on gensort records
// (2^17 of them, cut into k equal sequences): AppendMerge at k = 2, 4
// and 21, and MergeBlocks at the benchmark's run counts (21 and 49 per
// PE) over 163-record blocks, the records a 16 KiB block holds.
func BenchmarkMergeRec100(b *testing.B) {
	const n, blk = 1 << 17, 163
	rc := elem.Rec100Codec{}
	for _, k := range []int{2, 4, 21} {
		seqs := sortedRecSeqs(rand.New(rand.NewPCG(uint64(k), 1)), k, n)
		dst := make([]elem.Rec100, 0, n)
		b.Run(fmt.Sprintf("AppendMerge/k=%d", k), func(b *testing.B) {
			for b.Loop() {
				AppendMerge[elem.Rec100](rc, dst[:0], seqs)
			}
			b.ReportMetric(float64(n/k*k)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Melem/s")
		})
	}
	for _, k := range []int{21, 49} {
		seqs := sortedRecSeqs(rand.New(rand.NewPCG(uint64(k), 2)), k, n)
		out := make([]elem.Rec100, blk)
		b.Run(fmt.Sprintf("MergeStream/k=%d", k), func(b *testing.B) {
			for b.Loop() {
				MergeBlocks[elem.Rec100](rc, k, out, streamOf(seqs, blk), func([]elem.Rec100) ([]elem.Rec100, error) { return out, nil })
			}
			b.ReportMetric(float64(n/k*k)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Melem/s")
		})
	}
}
