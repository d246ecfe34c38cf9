package stripesort

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"demsort/internal/cluster/sim"
	"demsort/internal/elem"
	"demsort/internal/sortbench"
	"demsort/internal/vtime"
	"demsort/internal/workload"
)

var kvc = elem.KV16Codec{}

func testConfig(p int) Config {
	cfg := DefaultConfig(p, 1<<13, 64*16)
	cfg.Model = vtime.Default()
	cfg.KeepOutput = true
	return cfg
}

func checkSorted(t *testing.T, res *Result[elem.KV16], input [][]elem.KV16) {
	t.Helper()
	var all []elem.KV16
	for _, part := range input {
		all = append(all, part...)
	}
	if int64(len(all)) != res.N {
		t.Fatalf("output N=%d, input %d", res.N, len(all))
	}
	if !elem.IsSorted[elem.KV16](kvc, res.Output) {
		t.Fatal("striped output not globally sorted")
	}
	// Permutation check via order-independent checksum.
	if workload.Checksum(all) != workload.Checksum(res.Output) {
		t.Fatal("output is not a permutation of the input")
	}
}

func TestStripedSortEndToEnd(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		for _, kind := range []workload.Kind{workload.Uniform, workload.WorstCaseLocal, workload.AllEqual} {
			cfg := testConfig(p)
			input := workload.Generate(kind, p, 5200, 77)
			res, err := Sort[elem.KV16](kvc, cfg, input)
			if err != nil {
				t.Fatalf("p=%d %s: %v", p, kind, err)
			}
			checkSorted(t, res, input)
			if res.Runs < 2 {
				t.Fatalf("p=%d %s: expected external regime, R=%d", p, kind, res.Runs)
			}
			if res.Batches < 2 {
				t.Fatalf("p=%d %s: expected several merge batches, got %d", p, kind, res.Batches)
			}
		}
	}
}

func TestStripedOutputIsStriped(t *testing.T) {
	// Block homes must alternate across PEs: with striping, per-PE
	// block counts differ by at most one.
	cfg := testConfig(4)
	input := workload.Generate(workload.Uniform, 4, 5000, 3)
	res, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := res.StripedBlocks[0], res.StripedBlocks[0]
	for _, c := range res.StripedBlocks {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if hi-lo > 1 {
		t.Fatalf("striped block counts unbalanced: %v", res.StripedBlocks)
	}
}

func TestStripedIOIsExactlyTwoPasses(t *testing.T) {
	// Section III's defining property: I/O volume exactly 4N (read and
	// write each element once per pass), even for the worst-case input
	// that costs CANONICALMERGESORT extra all-to-all I/O.
	cfg := testConfig(4)
	cfg.Randomize = false
	input := workload.Generate(workload.WorstCaseLocal, 4, 6000, 5)
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
	if read != 2*nBytes || written != 2*nBytes {
		t.Fatalf("I/O read %d written %d, want exactly %d each (4N total)", read, written, 2*nBytes)
	}
}

func TestStripedCommunicatesMoreThanCanonical(t *testing.T) {
	// The price of striping: ~4 communications of the data versus ~1.
	cfg := testConfig(4)
	input := workload.Generate(workload.Uniform, 4, 6000, 9)
	res, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	nBytes := res.N * int64(res.ElemSize)
	var net int64
	for _, ph := range res.PhaseNames {
		net += res.NetBytes(ph)
	}
	ratio := float64(net) / float64(nBytes)
	if ratio < 2.0 {
		t.Fatalf("striped sort communicated only %.2fx N — expected the multi-communication overhead", ratio)
	}
}

func TestStripedSingleRun(t *testing.T) {
	cfg := testConfig(3)
	input := workload.Generate(workload.Uniform, 3, 800, 11)
	res, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, res, input)
}

func TestStripedEmptyAndTiny(t *testing.T) {
	cfg := testConfig(2)
	res, err := Sort[elem.KV16](kvc, cfg, [][]elem.KV16{{}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 0 {
		t.Fatalf("N=%d", res.N)
	}
	input := [][]elem.KV16{{{Key: 3, Val: 0}}, {{Key: 1, Val: 1}}}
	res, err = Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, res, input)
}

func TestStripedDeterministic(t *testing.T) {
	cfg := testConfig(4)
	input := workload.Generate(workload.Uniform, 4, 5000, 13)
	a, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Output, b.Output) {
		t.Fatal("nondeterministic output")
	}
	for _, ph := range a.PhaseNames {
		if a.MaxWall(ph) != b.MaxWall(ph) {
			t.Fatal("nondeterministic virtual time")
		}
	}
}

func TestStripedCapacityBeyondCanonical(t *testing.T) {
	// Section IV-D: canonical sorts O(P·m²/B), striped sorts O(M²/B) —
	// a factor P more. Check the code agrees qualitatively: a run
	// count acceptable to stripesort at P=8 can exceed canonical's
	// per-PE merge limit.
	memElems := int64(1 << 10)
	blockBytes := 64 * 16
	bElem := int64(blockBytes / 16)
	p := int64(8)
	stripedMaxRuns := p * memElems / (4 * bElem)
	canonicalMaxRuns := (memElems/2 - bElem) / (2 * bElem)
	if stripedMaxRuns <= canonicalMaxRuns {
		t.Fatalf("striped capacity %d runs should exceed canonical %d", stripedMaxRuns, canonicalMaxRuns)
	}
	if stripedMaxRuns < p*canonicalMaxRuns/2 {
		t.Fatalf("striped capacity should scale ~P times canonical")
	}
}

// TestStripedRejectsOversizedPredictionTable sorts at demsort's CLI
// defaults (-striped -records -p 4: 4 × 24576 records, 8192 elements of
// memory, 10-record blocks): the prediction table alone — one entry per
// block, on every PE — outgrows the budget. That must be refused before
// the machine exists or a byte of input is read, saying what to change;
// it used to panic in the budget tracker after run formation.
func TestStripedRejectsOversizedPredictionTable(t *testing.T) {
	cfg := DefaultConfig(4, 8192, 1024)
	cfg.Source = func(rank int) (io.Reader, int64, error) {
		return iotest.ErrReader(errors.New("input was read")), 24576, nil
	}
	_, err := Sort[elem.Rec100](elem.Rec100Codec{}, cfg, nil)
	if err == nil || !strings.Contains(err.Error(), "prediction table") ||
		!strings.Contains(err.Error(), "-mem") || !strings.Contains(err.Error(), "-block") {
		t.Fatalf("want a capacity rejection naming -mem and -block, got: %v", err)
	}
}

func TestStripedRejectsTooManyRuns(t *testing.T) {
	cfg := testConfig(1)
	cfg.MemElems = 512
	// runLocal = 102 elements = 1 block; capacity M/(4B) = 2 runs.
	input := workload.Generate(workload.Uniform, 1, 5000, 1)
	if _, err := Sort[elem.KV16](kvc, cfg, input); err == nil {
		t.Fatal("expected capacity rejection")
	}
}

// TestStripedRec100SharedPrefixes drives the key-cached barrier probes
// through the inexact-key path: Rec100's normalized key covers only 8
// of the 10 key bytes, and skewed records share a 9-byte hot prefix,
// so the prediction sort and the batch-boundary sort.Search must fall
// back to the comparator on equal uint64 keys to stay correct.
func TestStripedRec100SharedPrefixes(t *testing.T) {
	rc := elem.Rec100Codec{}
	const p, nPer = 4, 4000
	cfg := DefaultConfig(p, 1<<13, 10*100)
	cfg.Model = vtime.Default()
	cfg.KeepOutput = true
	input := make([][]elem.Rec100, p)
	var all []elem.Rec100
	for rank := 0; rank < p; rank++ {
		input[rank] = sortbench.Skewed(3, int64(rank)*nPer, nPer, 7)
		all = append(all, input[rank]...)
	}
	res, err := Sort[elem.Rec100](rc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	if !elem.IsSorted[elem.Rec100](rc, res.Output) {
		t.Fatal("striped Rec100 output not globally sorted")
	}
	want := sortbench.Validate(func() []elem.Rec100 {
		s := slices.Clone(all)
		slices.SortFunc(s, func(a, b elem.Rec100) int { return bytes.Compare(a[:10], b[:10]) })
		return s
	}())
	got := sortbench.Validate(res.Output)
	if got.Records != want.Records || got.Checksum != want.Checksum || got.Unsorted != 0 {
		t.Fatalf("valsort mismatch: got %+v want %+v", got, want)
	}
	if res.Runs < 2 || res.Batches < 2 {
		t.Fatalf("expected external regime with several batches, got R=%d batches=%d", res.Runs, res.Batches)
	}
}

// TestStripedSortStaysWithinBudget runs a whole multi-run striped sort
// on a machine the test keeps, so the budget can be read afterwards:
// with run formation reading one run ahead and charging its send
// copies, every rank's peak stays within M and nothing is left charged.
// The batch count pins the fetch quota, max((M − |prediction|)/(16·B), 1)
// blocks per PE and batch: 325 blocks at a quota of 7 on each of 4 PEs.
func TestStripedSortStaysWithinBudget(t *testing.T) {
	cfg := testConfig(4)
	sm, err := sim.New(sim.Config{P: cfg.P, BlockBytes: cfg.BlockBytes, MemElems: cfg.MemElems, Model: cfg.Model})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	cfg.Machine = sm
	input := workload.Generate(workload.Uniform, 4, 5200, 21)
	res, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, res, input)
	if res.Runs < 3 {
		t.Fatalf("expected several runs, got %d", res.Runs)
	}
	if res.Batches != 13 {
		t.Errorf("%d merge batches, want 13", res.Batches)
	}
	for _, n := range sm.Nodes() {
		if peak := n.Mem.Peak(); peak == 0 || peak > cfg.MemElems {
			t.Errorf("rank %d: peak %d elements, budget %d", n.Rank, peak, cfg.MemElems)
		}
		if used := n.Mem.Used(); used != 0 {
			t.Errorf("rank %d: %d elements still charged after the sort", n.Rank, used)
		}
	}
}
