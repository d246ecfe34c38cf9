package core

import (
	"bytes"
	"errors"
	"sync"

	"demsort/internal/blockio"
	"fmt"
	"testing"

	"demsort/internal/elem"
	"demsort/internal/vtime"
	"demsort/internal/workload"
)

var kvc = elem.KV16Codec{}

// testConfig builds a small but fully external configuration: several
// runs, several blocks per run.
func testConfig(p int) Config {
	model := vtime.Default()
	cfg := DefaultConfig(p, 1<<13 /* 8 Ki elements per PE */, 64*16 /* 64-element blocks */)
	cfg.Model = model
	cfg.KeepOutput = true
	return cfg
}

func inputFor(cfg Config, kind workload.Kind, perPE int, seed uint64) [][]elem.KV16 {
	return workload.Generate(kind, cfg.P, perPE, seed)
}

func TestSortEndToEndMatrix(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		for _, kind := range []workload.Kind{workload.Uniform, workload.WorstCaseLocal, workload.AllEqual} {
			for _, randomize := range []bool{true, false} {
				name := fmt.Sprintf("p%d_%s_rand%v", p, kind, randomize)
				t.Run(name, func(t *testing.T) {
					cfg := testConfig(p)
					cfg.Randomize = randomize
					perPE := 5000 + 137*p
					input := inputFor(cfg, kind, perPE, 42)
					res, err := Sort[elem.KV16](kvc, cfg, input)
					if err != nil {
						t.Fatal(err)
					}
					if err := res.Validate(kvc, input); err != nil {
						t.Fatal(err)
					}
					if res.Runs < 2 {
						t.Fatalf("expected an external sort (R >= 2), got R=%d", res.Runs)
					}
				})
			}
		}
	}
}

func TestSortAllWorkloads(t *testing.T) {
	for _, kind := range workload.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			cfg := testConfig(4)
			input := inputFor(cfg, kind, 5500, 7)
			res, err := Sort[elem.KV16](kvc, cfg, input)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Validate(kvc, input); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSortUnevenInputs(t *testing.T) {
	cfg := testConfig(4)
	input := inputFor(cfg, workload.Uniform, 5500, 1)
	input[1] = input[1][:2700] // one PE has less data
	input[3] = input[3][:0]    // one PE has none
	res, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(kvc, input); err != nil {
		t.Fatal(err)
	}
}

func TestSortEmptyInput(t *testing.T) {
	cfg := testConfig(3)
	input := [][]elem.KV16{{}, {}, {}}
	res, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 0 {
		t.Fatalf("N = %d", res.N)
	}
}

func TestSortSingleElement(t *testing.T) {
	cfg := testConfig(2)
	input := [][]elem.KV16{{{Key: 9, Val: 1}}, {}}
	res, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(kvc, input); err != nil {
		t.Fatal(err)
	}
}

func TestSortSingleRunRegime(t *testing.T) {
	// Input fits into one run: the §IV-E single-run path.
	cfg := testConfig(4)
	input := inputFor(cfg, workload.Uniform, 900, 3) // < runLocal
	res, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 1 {
		t.Fatalf("expected single run, got %d", res.Runs)
	}
	if err := res.Validate(kvc, input); err != nil {
		t.Fatal(err)
	}
	// Single-run final merge must cost no disk traffic at all.
	read, written := res.PhaseBytes(PhaseMerge)
	if read != 0 || written != 0 {
		t.Fatalf("single-run merge did I/O: read %d written %d", read, written)
	}
}

// closureKV16 is KV16's order without the KeyedCodec extension: the
// whole pipeline must work through the comparator fallback alone.
type closureKV16 struct{}

func (closureKV16) Size() int                    { return 16 }
func (closureKV16) Encode(d []byte, v elem.KV16) { elem.KV16Codec{}.Encode(d, v) }
func (closureKV16) Decode(s []byte) elem.KV16    { return elem.KV16Codec{}.Decode(s) }
func (closureKV16) Less(a, b elem.KV16) bool     { return a.Key < b.Key }

// TestSortClosureOnlyCodec runs the full sort with a codec that has no
// normalized key: run formation, selection, exchange and the final
// merge all take the comparator fallback and must still produce the
// canonical sorted output.
func TestSortClosureOnlyCodec(t *testing.T) {
	cfg := testConfig(4)
	input := inputFor(cfg, workload.Uniform, 5500, 3)
	res, err := Sort[elem.KV16](closureKV16{}, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(closureKV16{}, input); err != nil {
		t.Fatal(err)
	}
	// The fallback must agree with the keyed plane element-for-element.
	keyed, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	for pe := range res.Output {
		if len(res.Output[pe]) != len(keyed.Output[pe]) {
			t.Fatalf("PE %d: fallback and keyed output sizes differ", pe)
		}
		for i := range res.Output[pe] {
			if res.Output[pe][i] != keyed.Output[pe][i] {
				t.Fatalf("PE %d index %d: fallback and keyed outputs differ", pe, i)
			}
		}
	}
}

func TestSortDeterministic(t *testing.T) {
	cfg := testConfig(4)
	input := inputFor(cfg, workload.Uniform, 6000, 5)
	a, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	for pe := range a.Output {
		if len(a.Output[pe]) != len(b.Output[pe]) {
			t.Fatal("output sizes differ between runs")
		}
		for i := range a.Output[pe] {
			if a.Output[pe][i] != b.Output[pe][i] {
				t.Fatalf("outputs differ at PE %d index %d", pe, i)
			}
		}
	}
	// Virtual time must be deterministic too.
	for _, ph := range a.PhaseNames {
		if a.MaxWall(ph) != b.MaxWall(ph) {
			t.Fatalf("phase %q wall differs between identical runs", ph)
		}
	}
}

func TestSortMemoryBudgetRespected(t *testing.T) {
	cfg := testConfig(4)
	input := inputFor(cfg, workload.Uniform, 6000, 9)
	res, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	for pe, peak := range res.PeakMemElems {
		if peak > cfg.MemElems {
			t.Errorf("PE %d peak memory %d exceeds budget %d", pe, peak, cfg.MemElems)
		}
	}
}

func TestSortInPlaceDiskBound(t *testing.T) {
	// §IV-E: the sort is nearly in place — peak disk usage stays within
	// input size plus a bounded overhead (partial blocks, R·P′ pieces).
	cfg := testConfig(4)
	perPE := 6000
	input := inputFor(cfg, workload.WorstCaseLocal, perPE, 13)
	cfg.Randomize = false // worst case: everything moves
	res, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	inputBlocks := int64((perPE + res.BlockElems - 1) / res.BlockElems)
	slack := int64(res.Runs*(cfg.P+2)) + int64(cfg.P) + 8
	for pe, peak := range res.PeakDiskBlocks {
		if peak > inputBlocks+slack {
			t.Errorf("PE %d peak disk %d blocks, input %d + slack %d", pe, peak, inputBlocks, slack)
		}
	}
}

func TestSortIOVolumeTwoPasses(t *testing.T) {
	// The paper's headline: 4N + o(N) I/O volume (two read/write passes)
	// for random input with randomization.
	cfg := testConfig(4)
	input := inputFor(cfg, workload.Uniform, 6000, 21)
	res, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	nBytes := res.N * int64(res.ElemSize)
	var read, written int64
	for _, ph := range res.PhaseNames {
		r, w := res.PhaseBytes(ph)
		read += r
		written += w
	}
	total := read + written
	if total < 4*nBytes {
		t.Fatalf("impossible: total I/O %d below 4N bytes %d", total, 4*nBytes)
	}
	if float64(total) > 4.35*float64(nBytes) {
		t.Errorf("total I/O %d bytes = %.2fx N, want ~4x + o(N)", total, float64(total)/float64(nBytes))
	}
	// Communication: data crosses the network about once (§IV-D).
	var net int64
	for _, ph := range res.PhaseNames {
		net += res.NetBytes(ph)
	}
	if float64(net) > 1.3*float64(nBytes) {
		t.Errorf("network volume %.2fx N, want ~1x", float64(net)/float64(nBytes))
	}
}

func TestSortWorstCaseMovesEverything(t *testing.T) {
	// Without randomization, locally sorted input forces the all-to-all
	// to move nearly all data (Figure 5's top curve)...
	cfg := testConfig(8)
	cfg.Randomize = false
	input := inputFor(cfg, workload.WorstCaseLocal, 6000, 17)
	res, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	nBytes := res.N * int64(res.ElemSize)
	read, written := res.PhaseBytes(PhaseExchange)
	ratioBad := float64(read+written) / float64(nBytes)

	// ...and with randomization the same input exchanges a small
	// fraction (Figure 5's randomized curves).
	cfg2 := testConfig(8)
	cfg2.Randomize = true
	res2, err := Sort[elem.KV16](kvc, cfg2, input)
	if err != nil {
		t.Fatal(err)
	}
	read2, written2 := res2.PhaseBytes(PhaseExchange)
	ratioGood := float64(read2+written2) / float64(nBytes)

	if ratioBad < 1.0 {
		t.Errorf("worst case non-randomized exchange ratio %.3f, want ~2", ratioBad)
	}
	if ratioGood > ratioBad/2 {
		t.Errorf("randomization did not help: %.3f vs %.3f", ratioGood, ratioBad)
	}
	if err := res.Validate(kvc, input); err != nil {
		t.Fatal(err)
	}
	if err := res2.Validate(kvc, input); err != nil {
		t.Fatal(err)
	}
}

func TestSortSelectionNegligible(t *testing.T) {
	// "Multiway selection takes in fact only negligible time" (§VI).
	cfg := testConfig(8)
	input := inputFor(cfg, workload.Uniform, 6000, 23)
	res, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	sel := res.MaxWall(PhaseSelection)
	rf := res.MaxWall(PhaseRunForm)
	if sel > rf/5 {
		t.Errorf("selection wall %.4fs vs run formation %.4fs — not negligible", sel, rf)
	}
}

func TestSortRejectsOversizedInput(t *testing.T) {
	cfg := testConfig(2)
	cfg.MemElems = 1 << 10
	perPE := int(cfg.MaxElemsPerPE(16)) + 10000
	input := [][]elem.KV16{make([]elem.KV16, perPE), make([]elem.KV16, perPE)}
	if _, err := Sort[elem.KV16](kvc, cfg, input); err == nil {
		t.Fatal("expected capacity error for input beyond two-pass bound")
	}
}

func TestSortConfigErrors(t *testing.T) {
	cfg := testConfig(2)
	cfg.P = 0
	if _, err := Sort[elem.KV16](kvc, cfg, nil); err == nil {
		t.Fatal("P=0 must fail")
	}
	cfg = testConfig(2)
	cfg.BlockBytes = 8 // smaller than an element
	if _, err := Sort[elem.KV16](kvc, cfg, [][]elem.KV16{{}, {}}); err == nil {
		t.Fatal("tiny blocks must fail")
	}
	cfg = testConfig(2)
	if _, err := Sort[elem.KV16](kvc, cfg, [][]elem.KV16{{}}); err == nil {
		t.Fatal("input/PE mismatch must fail")
	}
}

func TestSortOverlapAblation(t *testing.T) {
	// Overlapping I/O with computation must not change the output but
	// must reduce the modelled run-formation wall time.
	cfg := testConfig(4)
	input := inputFor(cfg, workload.Uniform, 6000, 29)
	cfg.Overlap = true
	a, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Overlap = false
	b, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(kvc, input); err != nil {
		t.Fatal(err)
	}
	if !(a.TotalWall() < b.TotalWall()) {
		t.Errorf("overlap did not reduce modelled time: %.4f vs %.4f", a.TotalWall(), b.TotalWall())
	}
}

func TestSortRec100(t *testing.T) {
	// SortBenchmark elements: 100-byte records, 10-byte keys.
	rc := elem.Rec100Codec{}
	cfg := DefaultConfig(3, 1<<12, 100*32)
	cfg.Seed = 4
	cfg.KeepOutput = true
	input := make([][]elem.Rec100, cfg.P)
	rngKeys := workload.Generate(workload.Uniform, cfg.P, 700, 31)
	for pe := range input {
		input[pe] = make([]elem.Rec100, len(rngKeys[pe]))
		for i, kv := range rngKeys[pe] {
			var rec elem.Rec100
			for b := 0; b < 8; b++ {
				rec[b] = byte(kv.Key >> (8 * (7 - b)))
			}
			rec[8] = byte(pe)
			rec[9] = byte(i)
			copy(rec[10:], fmt.Sprintf("payload-%d-%d", pe, i))
			input[pe][i] = rec
		}
	}
	res, err := Sort[elem.Rec100](rc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(rc, input); err != nil {
		t.Fatal(err)
	}
}

func TestSortSinkStreamsOutput(t *testing.T) {
	// Config.Sink must deliver exactly the sorted output bytes, in
	// order, without requiring KeepOutput's in-RAM materialization —
	// on the RAM store and on a file-backed store (the -store=file
	// path of the tcp workers).
	for _, store := range []string{"ram", "file"} {
		t.Run(store, func(t *testing.T) {
			cfg := testConfig(4)
			if store == "file" {
				cfg.NewStore = blockio.FileStoreFactory(t.TempDir(), cfg.BlockBytes)
			}
			var mu sync.Mutex
			streamed := make([][]byte, cfg.P)
			cfg.Sink = func(rank int, b []byte) error {
				mu.Lock()
				streamed[rank] = append(streamed[rank], b...)
				mu.Unlock()
				return nil
			}
			input := inputFor(cfg, workload.Uniform, 5200, 11)
			res, err := Sort[elem.KV16](kvc, cfg, input)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Validate(kvc, input); err != nil {
				t.Fatal(err)
			}
			for rank := 0; rank < cfg.P; rank++ {
				want := elem.EncodeSlice(kvc, res.Output[rank])
				if !bytes.Equal(streamed[rank], want) {
					t.Fatalf("rank %d: sink streamed %d bytes, KeepOutput has %d; contents differ",
						rank, len(streamed[rank]), len(want))
				}
			}
		})
	}
}

func TestSortSinkErrorAborts(t *testing.T) {
	cfg := testConfig(2)
	cfg.KeepOutput = false
	sinkErr := errors.New("disk full")
	cfg.Sink = func(rank int, b []byte) error { return sinkErr }
	input := inputFor(cfg, workload.Uniform, 5000, 3)
	_, err := Sort[elem.KV16](kvc, cfg, input)
	if err == nil || !errors.Is(err, sinkErr) {
		t.Fatalf("sink error must abort the sort, got %v", err)
	}
}
