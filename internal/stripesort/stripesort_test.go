package stripesort

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"demsort/internal/cluster"
	"demsort/internal/cluster/sim"
	"demsort/internal/dselect"
	"demsort/internal/elem"
	"demsort/internal/job"
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
	// Without a Sink the output stays striped: block homes alternate
	// across PEs, so per-PE block counts differ by at most one and add up
	// to the output's G = ⌈N/B⌉ blocks.
	cfg := testConfig(4)
	cfg.KeepOutput = false
	input := workload.Generate(workload.Uniform, 4, 5000, 3)
	res, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, sum := res.StripedBlocks[0], res.StripedBlocks[0], int64(0)
	for _, c := range res.StripedBlocks {
		lo, hi, sum = min(lo, c), max(hi, c), sum+c
	}
	if b := int64(res.BlockElems); hi-lo > 1 || sum != (res.N+b-1)/b {
		t.Fatalf("striped block counts %v: unbalanced, or not the %d-element output's", res.StripedBlocks, res.N)
	}
}

// TestStripedOutputLayout reads back the output a sort without a Sink
// leaves on the volumes: PE r's output blocks, in index order, are blocks
// r, r+P, r+2P, … of the sorted sequence — block g on PE g mod P — and
// read in g order they are the sorted input.
func TestStripedOutputLayout(t *testing.T) {
	const p = 4
	cfg := testConfig(p)
	cfg.KeepOutput = false
	input := workload.Generate(workload.Uniform, p, 5100, 8)
	j, err := job.Open(kvc, &cfg.Common, input, job.Striped, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	bElem := int64(j.BElem)
	homed := make([][][]elem.KV16, p) // per PE, its output blocks in index order
	err = j.Run(func(n *cluster.Node) error {
		st, err := runPE(j, kvc, n, &cfg, nil)
		if err != nil {
			return err
		}
		for k, id := range st.outBlocks {
			g := int64(n.Rank + k*p)
			l := min(bElem, st.totalN-g*bElem)
			if l <= 0 {
				return fmt.Errorf("PE %d homes %d output blocks: block %d is past the output's end", n.Rank, len(st.outBlocks), g)
			}
			raw := make([]byte, l*int64(kvc.Size()))
			n.Vol.ReadWait(id, raw)
			homed[n.Rank] = append(homed[n.Rank], elem.DecodeSlice(kvc, raw, int(l)))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res := &Result[elem.KV16]{}
	for g := 0; g/p < len(homed[g%p]); g++ {
		res.Output = append(res.Output, homed[g%p][g/p]...)
	}
	for _, part := range input {
		res.N += int64(len(part))
	}
	if got := int64(len(res.Output)); got != res.N {
		t.Fatalf("the blocks homed in g order hold %d elements, want %d", got, res.N)
	}
	checkSorted(t, res, input)
}

func TestStripedIOIsExactlyTwoPasses(t *testing.T) {
	// Section III's defining property: I/O volume exactly 4N (read and
	// write each element once per pass), even for the worst-case input
	// that costs CANONICALMERGESORT extra all-to-all I/O. Every phase
	// counts, the load and the collect included. With a Sink the output
	// is delivered instead of written, and never read back: N less
	// written, the same 2N read.
	input := workload.Generate(workload.WorstCaseLocal, 4, 6000, 5)
	for _, sink := range []bool{false, true} {
		cfg := testConfig(4)
		cfg.Randomize, cfg.KeepOutput = false, sink
		res, err := Sort[elem.KV16](kvc, cfg, input)
		if err != nil {
			t.Fatal(err)
		}
		nBytes := res.N * int64(res.ElemSize)
		var read, written int64
		for _, ph := range slices.Concat([]string{job.PhaseLoad}, res.PhaseNames, []string{job.PhaseCollect}) {
			r, w := res.PhaseBytes(ph)
			read += r
			written += w
		}
		wantWritten := 2 * nBytes
		if sink {
			wantWritten = nBytes
		}
		if read != 2*nBytes || written != wantWritten {
			t.Fatalf("sink=%v: I/O read %d written %d, want exactly %d and %d", sink, read, written, 2*nBytes, wantWritten)
		}
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
	sm := simMachine(t, &cfg)
	input := workload.Generate(workload.Uniform, 3, 800, 11)
	res, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 1 {
		t.Fatalf("want the single-run regime, got R=%d", res.Runs)
	}
	checkSorted(t, res, input)
	checkBudget(t, sm, cfg.MemElems)
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
// defaults (-striped -workload=records -p 4: 4 × 24576 records, 8192 elements of
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

// TestStripedSinkFitsSmallBudget: 16 PEs and a budget of 3000 elements,
// less than a 64-element block for each PE four times over. An owner
// receives at most a batch's output, whatever P is, so the sort runs
// within its budget with the output collected as it does without.
func TestStripedSinkFitsSmallBudget(t *testing.T) {
	input := workload.Generate(workload.Uniform, 16, 900, 3)
	for _, keep := range []bool{false, true} {
		cfg := DefaultConfig(16, 3000, 64*16)
		cfg.KeepOutput = keep
		sm := simMachine(t, &cfg)
		res, err := Sort[elem.KV16](kvc, cfg, input)
		if err != nil || res.Runs != 2 {
			t.Fatalf("keep=%v: %v", keep, err)
		}
		if keep {
			checkSorted(t, res, input)
		}
		checkBudget(t, sm, cfg.MemElems)
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

// simMachine builds the sim machine cfg describes and hands it to cfg, so
// a test can read the ranks' budgets after the sort.
func simMachine(t *testing.T, cfg *Config) *sim.Machine {
	t.Helper()
	sm, err := sim.New(sim.Config{P: cfg.P, BlockBytes: cfg.BlockBytes, MemElems: cfg.MemElems, Model: cfg.Model})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sm.Close() })
	cfg.Machine = sm
	return sm
}

// checkBudget asserts that every rank used its budget, stayed within it
// and holds nothing of it any more.
func checkBudget(t *testing.T, sm *sim.Machine, memElems int64) {
	t.Helper()
	for _, n := range sm.Nodes() {
		if peak := n.Mem.Peak(); peak == 0 || peak > memElems {
			t.Errorf("rank %d: peak %d elements, budget %d", n.Rank, peak, memElems)
		}
		if used := n.Mem.Used(); used != 0 {
			t.Errorf("rank %d: %d elements still charged after the sort", n.Rank, used)
		}
	}
}

// TestStripedSortStaysWithinBudget runs a whole multi-run striped sort
// on a machine the test keeps, so the budget can be read afterwards:
// every rank's peak stays within M and nothing is left charged, with the
// output left striped and with it delivered to a Sink. The quota and the
// batch count pin the plan's MergeQuota: M = 8192, 325 prediction
// entries, B = 64, R = 4 runs on P = 4 PEs, rotated, so 2 leftover
// blocks. Without a Sink, at q = 24 a batch holds 325 + 26·64 +
// 3·(25·64·5/4 + 6) + 2·64 = 8135 elements, at q = 25 it would hold
// 8439: 325 blocks at 24 per PE and batch are 4 batches. With one, an
// owner may receive a batch's E = (4 + 4q)·64 elements next to its send
// copies: at q = 18 that is 325 + 20·64 + (1216 + 304 + 6) + 4864 = 7995,
// at q = 19 it would be 8395; 325 blocks at 18 are 5 batches.
func TestStripedSortStaysWithinBudget(t *testing.T) {
	input := workload.Generate(workload.Uniform, 4, 5200, 21)
	for _, tc := range []struct {
		sink           bool // KeepOutput, which rides on the Sink
		quota, batches int64
	}{{false, 24, 4}, {true, 18, 5}} {
		cfg := testConfig(4)
		cfg.KeepOutput = tc.sink
		sm := simMachine(t, &cfg)
		res, err := Sort[elem.KV16](kvc, cfg, input)
		if err != nil {
			t.Fatal(err)
		}
		if res.Runs < 3 {
			t.Fatalf("expected several runs, got %d", res.Runs)
		}
		if res.Quota != tc.quota || int64(res.Batches) != tc.batches {
			t.Errorf("sink=%v: quota %d, %d merge batches, want %d and %d", tc.sink, res.Quota, res.Batches, tc.quota, tc.batches)
		}
		if tc.sink {
			checkSorted(t, res, input)
		}
		checkBudget(t, sm, cfg.MemElems)
	}
}

// TestMergeQuota pins the merge's fetch quota (job.Plan.MergeQuota) on
// the benchmark's striped geometry (Rec100, M = 25 000, 163-record
// blocks, 26 runs, P = 4) and its edges: a budget that the table and
// the leftovers fill, and one PE.
func TestMergeQuota(t *testing.T) {
	for _, tc := range []struct {
		name     string
		m, table int64
		bElem    int
		runs     int64
		p        int
		rotated  bool
		want     int64
		// collected: an owner may receive a batch's whole output
		collected bool
	}{
		// 3068 + (14+q)·163 + 3·((26+4q)·163/4·5/4 + 6) + 2·163 ≤ 25 000
		{"bench, rotated", 25000, 3068, 163, 26, 4, true, 19, false},
		// unrotated, all 26 leftovers can share a PE: (26+q)·163 of pending
		{"bench, unrotated", 25000, 3068, 163, 26, 4, false, 17, false},
		// the send copies and E = (26+4q)·163 received instead of SortAcross:
		// q = 13 holds 3068 + 27·163 + 3980 + 12 714 = 24 163, q = 14 25 182
		{"bench, rotated, collected", 25000, 3068, 163, 26, 4, true, 13, true},
		// q = 11 holds 3068 + 37·163 + 3573 + 11 410 = 24 082, q = 12 25 100
		{"bench, unrotated, collected", 25000, 3068, 163, 26, 4, false, 11, true},
		// TestStripedBudgetMatrix's geometry (-p 4 -n 131072, 64-element
		// blocks, 56 runs): 8192 + 29·64 + 3·(60·64/4·5/4 + 6) + 128 = 13 794
		{"too small, rotated", 12000, 8192, 64, 56, 4, true, 0, false},
		{"too small, unrotated", 12000, 8192, 64, 56, 4, false, 0, false},
		{"just fits", 13794, 8192, 64, 56, 4, true, 1, false},
		// everything it sends comes back: 100 + (4+q)·64 + 3·(4+q)·64 + 128
		{"one PE", 8192, 100, 64, 4, 1, true, 27, false},
	} {
		pl := job.Plan{Shape: job.Shape{Sorter: job.Striped, P: tc.p, MemElems: tc.m, Randomize: tc.rotated, Collected: tc.collected}, BElem: tc.bElem, Runs: tc.runs}
		if got := pl.MergeQuota(tc.table); got != tc.want {
			t.Errorf("%s: quota %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestStripedBatchesUseEveryPE is the striped row of the randomisation
// ablation. On uniform input all runs are alike, so the prediction
// sequence asks for block g of every run in a row. With Randomize the
// run stripes are rotated and those blocks live on all P PEs: a batch
// fetches close to the quota from each, and the merge needs little more
// than blocks/(P·quota) batches. Without it, every run is striped from
// PE 0, one PE homes the whole stretch, and the batch ends when that PE's
// quota is spent while the others have fetched next to nothing.
func TestStripedBatchesUseEveryPE(t *testing.T) {
	// 21 runs of 15 256-element blocks per PE: blocks large enough that
	// the runs' block boundaries do not blur into each other, and more
	// runs than a PE may fetch blocks in a batch.
	const p, perPE = 4, 80000
	input := workload.Generate(workload.Uniform, p, perPE, 31)
	type layout struct{ keep, randomize bool }
	batches := map[layout]int{}
	for _, l := range []layout{{false, true}, {false, false}, {true, true}, {true, false}} {
		cfg := DefaultConfig(p, 20000, 256*16)
		cfg.KeepOutput, cfg.Randomize = l.keep, l.randomize
		res, err := Sort[elem.KV16](kvc, cfg, input)
		if err != nil {
			t.Fatal(err)
		}
		if l.keep {
			checkSorted(t, res, input)
		}
		if res.Runs != 21 {
			t.Fatalf("%+v: %d runs, want 21", l, res.Runs)
		}
		for rank, f := range res.MaxFetch {
			if f == 0 || f > res.Quota {
				t.Errorf("%+v: rank %d fetched up to %d blocks in a batch, quota %d", l, rank, f, res.Quota)
			}
		}
		batches[l] = res.Batches
		blocks := (res.N + 255) / 256
		ideal := int((blocks + p*res.Quota - 1) / (p * res.Quota))
		t.Logf("keep=%v randomize=%v: %d blocks, quota %d, %d batches (every PE at its quota: %d)", l.keep, l.randomize, blocks, res.Quota, res.Batches, ideal)
		if l.randomize && 2*res.Batches > 3*ideal {
			t.Errorf("rotated stripes: %d batches, more than 1.5 × %d", res.Batches, ideal)
		}
	}
	// Collecting the output lowers the quota (an owner may receive a
	// whole batch): 8 → 5 blocks rotated, and more batches.
	if b := batches; b[layout{false, true}] != 46 || b[layout{false, false}] != 181 || b[layout{true, true}] != 75 || b[layout{true, false}] != 361 {
		t.Errorf("batches, rotated and not: %d and %d striped, %d and %d collected; want 46, 181, 75 and 361",
			b[layout{false, true}], b[layout{false, false}], b[layout{true, true}], b[layout{true, false}])
	}
}

// TestStripedBudgetMatrix runs the geometry of demsort -striped -p 4
// -n 131072 -mem 12000 (64-element blocks, 56 runs), which used to
// overflow the budget mid-merge with every run's leftover block on one
// PE, and the same input with a little more memory over the input kinds
// and both stripe layouts. Every cell either sorts within its budget or
// is refused before the machine is touched, by an error that says what
// to change.
func TestStripedBudgetMatrix(t *testing.T) {
	const p, perPE = 4, 131072
	sorted := 0
	for _, kind := range []workload.Kind{workload.Uniform, workload.AllEqual, workload.GloballySorted, workload.HotKey} {
		input := workload.Generate(kind, p, perPE, 5)
		for _, mem := range []int64{12000, 14000, 20000} {
			for _, randomize := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s_mem%d_randomize=%v", kind, mem, randomize), func(t *testing.T) {
					cfg := DefaultConfig(p, mem, 64*16)
					cfg.KeepOutput = true
					cfg.Randomize = randomize
					sm := simMachine(t, &cfg)
					res, err := Sort[elem.KV16](kvc, cfg, input)
					if err != nil {
						if !strings.Contains(err.Error(), "-mem") || !strings.Contains(err.Error(), "-block") {
							t.Fatalf("refused without naming -mem and -block: %v", err)
						}
						for _, n := range sm.Nodes() {
							if n.Mem.Peak() != 0 || n.Vol.PeakUsed() != 0 {
								t.Fatalf("refused only after rank %d had started: %v", n.Rank, err)
							}
						}
						return
					}
					sorted++
					checkSorted(t, res, input)
					checkBudget(t, sm, mem)
				})
			}
		}
	}
	// 20 000 elements hold a collected batch under either layout. 14 000
	// would hold one under rotated stripes with the output left striped,
	// but not one an owner receives whole next to its send copies (q = 1
	// needs 8192 + 25·64 + 1046 + 52·64 = 14 166).
	if sorted != 4*2 {
		t.Errorf("%d of the 24 cells were sorted, want 8", sorted)
	}
}

// cutAll runs sampleCuts on a p-PE sim machine, PE q holding the sorted
// chunks[q], and returns every PE's cuts and the agreed total.
func cutAll(t *testing.T, chunks [][]elem.KV16) ([][]int64, int64) {
	t.Helper()
	p := len(chunks)
	sm, err := sim.New(sim.Config{P: p, BlockBytes: 1024, MemElems: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	cuts, totals := make([][]int64, p), make([]int64, p)
	err = sm.Run(func(n *cluster.Node) error {
		n.SetPhase(PhaseMerge)
		cuts[n.Rank], totals[n.Rank] = sampleCuts[elem.KV16](kvc, n, dselect.Sorted[elem.KV16]{Vals: chunks[n.Rank]})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, total := range totals {
		if total != totals[0] || len(cuts[rank]) != p-1 {
			t.Fatalf("rank %d: total %d and %d cuts, rank 0 has total %d, want %d cuts", rank, total, len(cuts[rank]), totals[0], p-1)
		}
	}
	return cuts, totals[0]
}

// TestSampleCutsDegenerate: a machine without elements — a degenerate
// empty run's — has no sample to take a splitter from (the parent
// indexed the last one) and cuts everywhere at 0; an empty PE among full
// ones contributes nothing and cuts at 0; all-equal keys are cut by
// (PE, position) alone, so the pieces stay disjoint and in PE order.
func TestSampleCutsDegenerate(t *testing.T) {
	cuts, total := cutAll(t, make([][]elem.KV16, 4))
	if total != 0 {
		t.Fatalf("empty machine: total %d", total)
	}
	for rank, c := range cuts {
		if !slices.Equal(c, []int64{0, 0, 0}) {
			t.Fatalf("empty machine: rank %d cuts at %v", rank, c)
		}
	}

	asc := func(n int, from uint64) []elem.KV16 {
		out := make([]elem.KV16, n)
		for i := range out {
			out[i].Key = from + uint64(i)
		}
		return out
	}
	cuts, total = cutAll(t, [][]elem.KV16{asc(400, 0), nil, asc(400, 400)})
	if total != 800 || !slices.Equal(cuts[1], []int64{0, 0}) {
		t.Fatalf("one empty PE: total %d, its cuts %v", total, cuts[1])
	}
	if recv := cuts[0][0] + cuts[1][0] + cuts[2][0]; recv == 0 || recv > job.RecvBound(800, 3) {
		t.Fatalf("one empty PE: PE 0 receives %d of 800 elements, bound %d", recv, job.RecvBound(800, 3))
	}

	// All keys equal: in (value, PE, position) order the union is PE 0's
	// chunk, then PE 1's, …; every cut must fall on that sequence.
	equal := [][]elem.KV16{make([]elem.KV16, 300), make([]elem.KV16, 50), make([]elem.KV16, 500), make([]elem.KV16, 150)}
	cuts, total = cutAll(t, equal)
	if total != 1000 {
		t.Fatalf("all equal: total %d", total)
	}
	for i := 0; i < 3; i++ {
		// Split i falls inside one PE's chunk: the PEs before it are cut
		// at their end, the PEs after it at 0.
		split := 0
		for split < 3 && cuts[split][i] == int64(len(equal[split])) {
			split++
		}
		for q := split + 1; q < 4; q++ {
			if cuts[q][i] != 0 {
				t.Fatalf("all equal: cut %d is %d on PE %d although PE %d is cut at %d of %d", i, cuts[q][i], q, split, cuts[split][i], len(equal[split]))
			}
		}
	}
	checkRecvBound(t, "all equal", equal, cuts, total)
}

// checkRecvBound asserts that no PE receives more than job.RecvBound under
// cuts, and that the cuts are monotone.
func checkRecvBound(t *testing.T, name string, chunks [][]elem.KV16, cuts [][]int64, total int64) {
	t.Helper()
	p := len(chunks)
	bound := job.RecvBound(total, p)
	for i := 0; i < p; i++ {
		var recv int64
		for q := range chunks {
			lo, hi := int64(0), int64(len(chunks[q]))
			if i > 0 {
				lo = cuts[q][i-1]
			}
			if i < p-1 {
				hi = cuts[q][i]
			}
			if lo > hi {
				t.Fatalf("%s: PE %d cuts %v are not monotone", name, q, cuts[q])
			}
			recv += hi - lo
		}
		if recv > bound {
			t.Errorf("%s: PE %d receives %d of %d elements, bound %d", name, i, recv, total, bound)
		}
	}
}

// TestSampleCutsStayWithinRecvBound checks the stated imbalance bound —
// the constant the budget arithmetic charges — on inputs that defeat
// naive splitters: disjoint sorted bands, the bands reversed, a hot key
// holding 90 % of the elements, and chunks of very different lengths.
func TestSampleCutsStayWithinRecvBound(t *testing.T) {
	const p, perPE = 4, 3000
	sortedChunks := func(in [][]elem.KV16) [][]elem.KV16 {
		for _, c := range in {
			slices.SortStableFunc(c, func(a, b elem.KV16) int { return cmp.Compare(a.Key, b.Key) })
		}
		return in
	}
	uneven := workload.Generate(workload.Uniform, p, perPE, 9)
	uneven[0], uneven[2] = uneven[0][:40], uneven[2][:1]
	for name, chunks := range map[string][][]elem.KV16{
		"sorted":   workload.Generate(workload.GloballySorted, p, perPE, 9),
		"reversed": workload.Generate(workload.ReversedBands, p, perPE, 9),
		"hotkey":   sortedChunks(workload.Generate(workload.HotKey, p, perPE, 9)),
		"uneven":   sortedChunks(uneven),
	} {
		for _, c := range chunks {
			if !elem.IsSorted[elem.KV16](kvc, c) {
				t.Fatalf("%s: chunk not sorted", name)
			}
		}
		cuts, total := cutAll(t, chunks)
		var want int64
		for _, c := range chunks {
			want += int64(len(c))
		}
		if total != want {
			t.Fatalf("%s: total %d, want %d", name, total, want)
		}
		checkRecvBound(t, name, chunks, cuts, total)
	}
}

// opCounts hosts a machine's PEs with an op hook counting each rank's
// communication calls by name, as faulty.Machine.Run installs its hook.
type opCounts struct {
	cluster.Machine
	calls []map[string]int
}

func (m *opCounts) Run(fn func(*cluster.Node) error) error {
	return m.Machine.Run(func(n *cluster.Node) error {
		calls := map[string]int{}
		m.calls[n.Rank] = calls
		n.SetOpHook(func(op string) { calls[op]++ })
		defer n.SetOpHook(nil)
		return fn(n)
	})
}

// TestStripedCollectivesPerCall pins the striped protocol's rounds:
// every call of the distributed sort (one per run and one per merge
// batch) is one sample AllGather and two AllToAllv, SortAcross's and the
// stripe's — the piece's start rides with SortAcross's data, so no round
// gathers the piece lengths. The one other AllGather is the prediction
// table.
func TestStripedCollectivesPerCall(t *testing.T) {
	for _, p := range []int{3, 4} {
		cfg := testConfig(p)
		sm := simMachine(t, &cfg)
		m := &opCounts{Machine: sm, calls: make([]map[string]int, p)}
		cfg.Machine = m
		input := workload.Generate(workload.Uniform, p, 5200, 41)
		res, err := Sort[elem.KV16](kvc, cfg, input)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		checkSorted(t, res, input)
		calls := res.Runs + res.Batches
		if res.Runs < 2 || res.Batches < 2 {
			t.Fatalf("p=%d: %d runs and %d batches, want several of each", p, res.Runs, res.Batches)
		}
		// Besides: the load's and the prediction table's Barrier and the
		// merge's closing one, the run count's AllReduceInt64 and the
		// output count's.
		want := map[string]int{"AllGather": calls + 1, "AllToAllv": 2 * calls, "Barrier": 3, "AllReduceInt64": 2}
		for rank, got := range m.calls {
			if !maps.Equal(got, want) {
				t.Errorf("p=%d rank %d, %d runs and %d batches: calls %v, want %v", p, rank, res.Runs, res.Batches, got, want)
			}
		}
	}
}
