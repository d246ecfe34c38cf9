package job_test

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"demsort/internal/blockio"
	"demsort/internal/cluster/sim"
	"demsort/internal/core"
	"demsort/internal/elem"
	"demsort/internal/job"
	"demsort/internal/stripesort"
	"demsort/internal/workload"
)

func mustPlan(t *testing.T, s job.Shape) job.Plan {
	t.Helper()
	pl, err := job.NewPlan(s)
	if err != nil {
		t.Fatalf("%+v refused: %v", s, err)
	}
	return pl
}

// TestGeometry pins the plan's run geometry: a PE's share of a run, R,
// and the shapes that have no geometry at all.
func TestGeometry(t *testing.T) {
	// A PE's share of a run: a quarter of the budget, a fifth striped (200
	// elements = 12 whole 16-element blocks), never less than a block.
	kv := func(sorter job.Sorter, mem int64) job.Shape {
		return job.Shape{Sorter: sorter, P: 4, MemElems: mem, BlockBytes: 256, ElemSize: 16}
	}
	for _, tc := range []struct {
		shape        job.Shape
		blocksPerRun int
	}{
		{kv(job.Canonical, 1000), 15},
		{kv(job.Striped, 1000), 12},
		{kv(job.Baseline, 8), 1},
	} {
		if pl := mustPlan(t, tc.shape); pl.BElem != 16 || pl.BlocksPerRun != tc.blocksPerRun || pl.RunLocal != int64(16*tc.blocksPerRun) {
			t.Errorf("%+v: %d blocks per run, want %d", tc.shape, pl.BlocksPerRun, tc.blocksPerRun)
		}
	}
	// R = ⌈N/P / RunLocal⌉, at least one.
	for nPerPE, want := range map[int64]int64{0: 1, 1: 1, 100: 1, 101: 2, 1000: 10} {
		s := job.Shape{Sorter: job.Baseline, P: 1, MemElems: 400, BlockBytes: 100, ElemSize: 1, NPerPE: nPerPE}
		if pl := mustPlan(t, s); pl.Runs != want {
			t.Errorf("RunLocal 100, N/P %d: %d runs, want %d", nPerPE, pl.Runs, want)
		}
	}
	if _, err := job.NewPlan(job.Shape{Sorter: job.Canonical, P: 4, MemElems: 1000, BlockBytes: 15, ElemSize: 16}); err == nil || !strings.Contains(err.Error(), "smaller than one element") {
		t.Errorf("15-byte blocks of 16-byte elements: %v", err)
	}
	if _, err := job.NewPlan(job.Shape{Sorter: job.Baseline, P: 0, MemElems: 1000, BlockBytes: 256, ElemSize: 16}); err == nil || !strings.Contains(err.Error(), "P must be") {
		t.Errorf("P = 0: %v", err)
	}
}

// TestPlan pins the plan's arithmetic: the benchmark's shapes, their
// budget shares and the refusals of a job no sorter can run.
func TestPlan(t *testing.T) {
	// The benchmark's geometries: Rec100 on 4 PEs.
	rec := func(sorter job.Sorter, mem int64, block int, nPerPE int64) job.Shape {
		return job.Shape{Sorter: sorter, P: 4, MemElems: mem, BlockBytes: block, ElemSize: 100, NPerPE: nPerPE, Randomize: true, Collected: true}
	}
	// canon_uniform: 163-record blocks, 76 per run, 21 runs; the first K
	// of 163, 204, … whose sample fits an eighth of the budget.
	pl := mustPlan(t, rec(job.Canonical, 50000, 16384, 250000))
	if pl.BElem != 163 || pl.BlocksPerRun != 76 || pl.Runs != 21 || pl.K != 204 {
		t.Errorf("canon_uniform: B %d, %d blocks per run, R %d, K %d; want 163, 76, 21, 204", pl.BElem, pl.BlocksPerRun, pl.Runs, pl.K)
	}
	if pl.ExchangeQuota != 12500 || pl.MergeBuffers != 43*163 || pl.CacheBlocks != 153 || pl.Gather != 6250 {
		t.Errorf("canon_uniform shares: exchange %d, merge %d, cache %d blocks, gather %d", pl.ExchangeQuota, pl.MergeBuffers, pl.CacheBlocks, pl.Gather)
	}
	// The exact run split: s = ⌊√(2·RunLocal)⌋ samples per PE, and an
	// owner gathers at most 2·P·(⌈RunLocal/s⌉ − 1) elements.
	if pl.SplitSamples != 157 || pl.SplitResidual != 624 {
		t.Errorf("canon_uniform split: %d samples, residual %d; want 157, 624", pl.SplitSamples, pl.SplitResidual)
	}
	if pl = mustPlan(t, rec(job.Canonical, 4096, 400, 50000)); pl.BElem != 4 || pl.Runs != 49 || pl.K != 453 {
		t.Errorf("canon_smallblock: B %d, R %d, K %d; want 4, 49, 453", pl.BElem, pl.Runs, pl.K)
	}
	if pl.SplitSamples != 45 || pl.SplitResidual != 176 {
		t.Errorf("canon_smallblock split: %d samples, residual %d; want 45, 176", pl.SplitSamples, pl.SplitResidual)
	}
	// striped_uniform: 26 runs; its table bound is one entry per input
	// block, 4 × 767. A PE holds the table, (left + q)·163 pending (left =
	// 14 rotated, 26 not) and the larger of the pending, the 3 ×
	// RecvBound of E = (26 + 4q)·163 reserved for SortAcross (it holds
	// two) plus two blocks, and — collected — its merged piece next to
	// all of E received as an owner. Collected, the
	// last is the largest: rotated, q = 13 holds 3068 + 27·163 + 3980 +
	// 12 714 = 24 163 of 25 000 and q = 14 would hold 25 182; unrotated,
	// q = 11 holds 3068 + 37·163 + 3573 + 11 410 = 24 082 and q = 12 25 100.
	// Left striped, q = 19 holds 3068 + 33·163 + 3·5203 + 326 = 24 382
	// rotated, q = 17 holds 3068 + 43·163 + 3·4795 + 326 = 24 788 not.
	for _, tc := range []struct {
		randomize, collected bool
		want                 int64
	}{{true, true, 13}, {false, true, 11}, {true, false, 19}, {false, false, 17}} {
		s := rec(job.Striped, 25000, 16384, 125000)
		s.Randomize, s.Collected = tc.randomize, tc.collected
		if pl := mustPlan(t, s); pl.Runs != 26 || pl.MergeQuota(3068) != tc.want {
			t.Errorf("striped_uniform, %+v: R %d, quota %d; want 26", tc, pl.Runs, pl.MergeQuota(3068))
		}
	}

	// What no sorter runs (TestGeometry has the shapes with no geometry),
	// and run formation's own limit: at 8-element blocks and M = 1024 a
	// run share of 256 elements and its 768 elements of MSD scratch leave
	// no room for the canonical sample of earlier runs.
	for _, tc := range []struct {
		shape job.Shape
		want  []string
	}{
		{job.Shape{Sorter: job.Striped, P: 4, MemElems: 0, BlockBytes: 256, ElemSize: 16}, []string{"-mem"}},
		{job.Shape{Sorter: job.Baseline, P: 4, MemElems: -1, BlockBytes: 256, ElemSize: 16}, []string{"-mem"}},
		{job.Shape{Sorter: job.Canonical, P: 1, MemElems: 1024, BlockBytes: 128, ElemSize: 16, NPerPE: 700}, []string{"run formation", "768 of sort scratch", "-mem"}},
	} {
		_, err := job.NewPlan(tc.shape)
		for _, w := range tc.want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("%+v: %v, want a refusal naming %q", tc.shape, err, w)
			}
		}
	}
}

// TestPlanStretches pins how many blocks the final merge reads per file
// and a writer stages per store call: k_r = clamp(⌊(M/2 − B)/(R·B)⌋, 2,
// ⌈16 KiB/block⌉), so the merge's (k_r·R + 1)·B stays within M/2, and
// k_w = ⌊16 KiB/block⌋, at most what run formation's sort scratch leaves
// beside the run's sample and at most a run share. The 16 KiB
// benchmark shapes keep a window of 2 and a stage of 1;
// canon_smallblock reads 10 and stages 40; a small budget caps the
// stage by its scratch room (19 of 25 blocks a run, 54 of 160).
func TestPlanStretches(t *testing.T) {
	for _, tc := range []struct {
		name          string
		shape         job.Shape
		window, stage int
		buffers       int64
	}{
		{"canon_uniform", job.Shape{Sorter: job.Canonical, P: 4, MemElems: 50000, BlockBytes: 16384, ElemSize: 100, NPerPE: 250000, Randomize: true, Collected: true}, 2, 1, 43 * 163},
		{"canon_smallblock", job.Shape{Sorter: job.Canonical, P: 4, MemElems: 4096, BlockBytes: 400, ElemSize: 100, NPerPE: 50000, Randomize: true, Collected: true}, 10, 40, (10*49 + 1) * 4},
		{"scratch_bound", job.Shape{Sorter: job.Canonical, P: 4, MemElems: 400, BlockBytes: 64, ElemSize: 16, NPerPE: 1000}, 4, 19, (4*10 + 1) * 4},
		{"one_element_blocks", job.Shape{Sorter: job.Canonical, P: 1, MemElems: 640, BlockBytes: 16, ElemSize: 16, NPerPE: 3000}, 16, 54, 16*19 + 1},
	} {
		pl := mustPlan(t, tc.shape)
		if pl.ReadWindow != tc.window || pl.WriteStage != tc.stage || pl.MergeBuffers != tc.buffers {
			t.Errorf("%s: read window %d, write stage %d, merge buffers %d; want %d, %d, %d",
				tc.name, pl.ReadWindow, pl.WriteStage, pl.MergeBuffers, tc.window, tc.stage, tc.buffers)
		}
		if pl.MergeBuffers > tc.shape.MemElems/2 || pl.WriteStage > pl.BlocksPerRun {
			t.Errorf("%s: merge buffers %d of M/2 = %d, stage %d of %d blocks a run", tc.name, pl.MergeBuffers, tc.shape.MemElems/2, pl.WriteStage, pl.BlocksPerRun)
		}
	}
}

// TestPlanGrid sorts a small grid of shapes on the sim backend with both
// mergesorts. A job the plan accepts sorts within its budget and leaves
// nothing charged; a job it refuses is refused in the plan's words
// before a machine is built or a byte of input is read.
func TestPlanGrid(t *testing.T) {
	kvc := elem.KV16Codec{}
	sorters := []struct {
		name      string
		sorter    job.Sorter
		randomize bool
	}{{"canonical", job.Canonical, true}, {"striped", job.Striped, true}, {"striped_unrotated", job.Striped, false}}
	for _, g := range []struct {
		mem           int64
		block, nPerPE int
	}{
		{4096, 256, 6000}, {8192, 1024, 24576}, {2048, 1024, 8000}, {1024, 128, 700},
		{3000, 1024, 900}, {1536, 256, 2500}, {640, 160, 3000},
	} {
		for _, p := range []int{1, 2, 4, 7} {
			input := workload.Generate(workload.Uniform, p, g.nPerPE, 5)
			for _, so := range sorters {
				t.Run(fmt.Sprintf("%s/M=%d_B=%d_n=%d_p=%d", so.name, g.mem, g.block, g.nPerPE, p), func(t *testing.T) {
					common := job.Defaults(p, g.mem, g.block)
					common.Randomize, common.KeepOutput = so.randomize, true
					sort := func(input [][]elem.KV16) (ok bool, err error) {
						if so.sorter == job.Canonical {
							res, err := core.Sort(kvc, core.Config{Common: common}, input)
							return err == nil && res.Validate(kvc, input) == nil, err
						}
						res, err := stripesort.Sort(kvc, stripesort.Config{Common: common}, input)
						if err != nil {
							return false, err
						}
						var all []elem.KV16
						for _, part := range input {
							all = append(all, part...)
						}
						return elem.IsSorted[elem.KV16](kvc, res.Output) && workload.Checksum(all) == workload.Checksum(res.Output), nil
					}
					_, refusal := job.NewPlan(job.Shape{Sorter: so.sorter, P: p, MemElems: g.mem, BlockBytes: g.block, ElemSize: 16,
						NPerPE: int64(g.nPerPE), Randomize: so.randomize, Collected: true})
					if refusal != nil {
						common.NewStore = func(int) (blockio.Store, error) {
							t.Error("a refused job built a machine")
							return nil, errors.New("refused job")
						}
						common.Source = func(int) (io.Reader, int64, error) {
							return iotest.ErrReader(errors.New("input was read")), int64(g.nPerPE), nil
						}
						if _, err := sort(nil); err == nil || !strings.Contains(err.Error(), refusal.Error()) {
							t.Fatalf("sorted to %v, want the plan's refusal %q", err, refusal)
						}
						return
					}
					sm, err := sim.New(sim.Config{P: p, BlockBytes: g.block, MemElems: g.mem, Model: common.Model})
					if err != nil {
						t.Fatal(err)
					}
					defer sm.Close()
					common.Machine = sm
					if ok, err := sort(input); err != nil || !ok {
						t.Fatalf("accepted job: %v, output valid %v", err, ok)
					}
					for _, n := range sm.Nodes() {
						if peak, used := n.Mem.Peak(), n.Mem.Used(); peak > g.mem || used != 0 {
							t.Errorf("rank %d: peak %d of a budget of %d, %d still charged", n.Rank, peak, g.mem, used)
						}
					}
				})
			}
		}
	}
}
