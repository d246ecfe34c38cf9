package core

import (
	"fmt"
	"slices"
	"testing"

	"demsort/internal/elem"
	"demsort/internal/job"
	"demsort/internal/psort"
	"demsort/internal/sortbench"
	"demsort/internal/workload"
)

// Every phase must return its memory reservations: the budget tracker
// of each PE ends a sort at exactly zero live elements. This pins the
// acquire/release pairing of run formation (chunk, send copies,
// received encodings, pieces+merged, and — the historical leak — the
// per-run samples, which are only released after multiway selection).
func TestSortMemBudgetReturnsToZero(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		for _, kind := range []workload.Kind{workload.Uniform, workload.WorstCaseLocal, workload.AllEqual} {
			t.Run(fmt.Sprintf("p%d_%s", p, kind), func(t *testing.T) {
				cfg := testConfig(p)
				input := inputFor(cfg, kind, 5200, 77)
				res, err := Sort[elem.KV16](kvc, cfg, input)
				if err != nil {
					t.Fatal(err)
				}
				if res.Runs < 2 {
					t.Fatalf("want an external sort (R >= 2), got R=%d", res.Runs)
				}
				for rank, live := range res.EndMemElems {
					if live != 0 {
						t.Errorf("PE %d finished with %d elements of budget still reserved", rank, live)
					}
				}
			})
		}
	}
}

// Run formation's radix sort scratch is charged against the budget, and
// the engine does not follow the headroom: the same run geometry (4
// blocks of 512 elements per PE and run — M/4 floored to whole blocks)
// sorted under a loose and a tight budget reaches the same run-formation
// high-water mark on every PE, which holds the chunk and the radix
// engine's scratch (one pair buffer and the histograms) at once.
func TestRunFormScratchCharged(t *testing.T) {
	const chunk = 4 * 512
	// One worker at this size whatever the host's (psort clamps to 8 Ki
	// pairs per worker), so the charge is the same everywhere.
	sorting := chunk + (psort.ScratchBytes(chunk, psort.DefaultWorkers())+15)/16
	var peaks [][]int64
	for _, tc := range []struct {
		name string
		mem  int64
	}{
		{"loose", 10000},
		{"tight", 8192},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(4, tc.mem, 512*16)
			res, err := Sort[elem.KV16](kvc, cfg, inputFor(cfg, workload.Uniform, 5200, 77))
			if err != nil {
				t.Fatal(err)
			}
			if res.Runs != 3 {
				t.Fatalf("want 3 runs of %d elements per PE, got R=%d", chunk, res.Runs)
			}
			for rank, peak := range res.RunFormPeakMemElems {
				if peak > tc.mem {
					t.Fatalf("PE %d: run-formation peak %d exceeds budget %d", rank, peak, tc.mem)
				}
				if peak < sorting {
					t.Fatalf("PE %d: run-formation peak %d below chunk + sort scratch %d", rank, peak, sorting)
				}
			}
			peaks = append(peaks, res.RunFormPeakMemElems)
		})
	}
	if len(peaks) == 2 && !slices.Equal(peaks[0], peaks[1]) {
		t.Fatalf("run-formation peaks differ between budgets: loose %v, tight %v", peaks[0], peaks[1])
	}
}

// Run formation charges what a PE holds: at most its run share twice,
// the chunk next to the send vectors SortAcross gathers it into, beside
// the chunk's permutation and the sample of the earlier runs. Every PE
// holds three full runs here, so each run hands it exactly its segment
// [rank·RunLocal, (rank+1)·RunLocal) and the peak comes in the last one:
// 2·RunLocal + permElems(RunLocal) + S, S the sample of the two earlier
// segments. (On canon_uniform's shape, RunLocal 12 388 and S 1 159, that
// is 26 431 of M = 50 000.)
func TestRunFormPeakIsTwoRunShares(t *testing.T) {
	const p, mem, block, size = 4, 8000, 1000, 100
	pl, err := job.NewPlan(job.Shape{Sorter: job.Canonical, P: p, MemElems: mem, BlockBytes: block, ElemSize: size, NPerPE: 3 * mem / 4})
	if err != nil {
		t.Fatal(err)
	}
	input := make([][]elem.Rec100, p)
	for r := range input {
		input[r] = sortbench.Generate(3, int64(r)*3*pl.RunLocal, 3*pl.RunLocal)
	}
	res, err := Sort[elem.Rec100](elem.Rec100Codec{}, DefaultConfig(p, mem, block), input)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 3 || pl.Runs != 3 {
		t.Fatalf("want 3 runs of %d elements per PE, got R=%d (planned %d)", pl.RunLocal, res.Runs, pl.Runs)
	}
	perm := (4*pl.RunLocal + size - 1) / size
	for rank, peak := range res.RunFormPeakMemElems {
		lo, hi := int64(rank)*pl.RunLocal, int64(rank+1)*pl.RunLocal
		sample := 2 * ((hi+pl.K-1)/pl.K - (lo+pl.K-1)/pl.K) // multiples of K in [lo, hi), twice
		if want := 2*pl.RunLocal + perm + sample; peak != want {
			t.Errorf("PE %d: run-formation peak %d, want 2·%d + %d + %d = %d", rank, peak, pl.RunLocal, perm, sample, want)
		}
	}
}

// The single-run (MinuteSort) regime takes a different code path
// through run formation; its pairing must balance too.
func TestSortMemBudgetReturnsToZeroSingleRun(t *testing.T) {
	cfg := testConfig(4)
	input := inputFor(cfg, workload.Uniform, 900, 5) // < runLocal: one run
	res, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 1 {
		t.Fatalf("want the single-run regime, got R=%d", res.Runs)
	}
	for rank, live := range res.EndMemElems {
		if live != 0 {
			t.Errorf("PE %d finished with %d elements of budget still reserved", rank, live)
		}
	}
}
