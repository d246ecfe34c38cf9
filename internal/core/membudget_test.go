package core

import (
	"fmt"
	"testing"

	"demsort/internal/elem"
	"demsort/internal/psort"
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
// the engine follows the headroom: the same run geometry (4 blocks of
// 512 elements per PE and run — M/4 floored to whole blocks) sorted under
// a loose and a tight budget takes the LSD scatter where chunk + scratch
// (two pair buffers, histograms, the gather buffer) fits and the
// in-place MSD (one pair buffer, no gather buffer) where it does not.
func TestRunFormScratchCharged(t *testing.T) {
	const chunk = 4 * 512
	// One worker at this size whatever the host's (psort clamps to 8 Ki
	// pairs per worker), so the charge is the same everywhere.
	lsd := chunk + (psort.ScratchBytes(psort.PathLSD, 16, chunk, psort.DefaultWorkers())+15)/16
	for _, tc := range []struct {
		name    string
		mem     int64
		wantLSD bool
	}{
		{"loose", 10000, true},
		{"tight", 8192, false},
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
			if fits := lsd <= tc.mem; fits != tc.wantLSD {
				t.Fatalf("chunk + LSD scratch = %d against a budget of %d: the case no longer tells the engines apart", lsd, tc.mem)
			}
			for rank, peak := range res.RunFormPeakMemElems {
				if peak > tc.mem {
					t.Fatalf("PE %d: run-formation peak %d exceeds budget %d", rank, peak, tc.mem)
				}
				// The LSD sort moment is the phase's high-water mark when
				// it ran; the MSD one (chunk + half the scratch) stays
				// below it.
				if ran := peak >= lsd; ran != tc.wantLSD {
					t.Fatalf("PE %d: peak %d, chunk + LSD scratch %d: LSD ran = %v, want %v", rank, peak, lsd, ran, tc.wantLSD)
				}
			}
		})
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
