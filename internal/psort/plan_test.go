package psort

import (
	"flag"
	"math/rand/v2"
	"testing"
	"time"

	"demsort/internal/elem"
)

var measure = flag.Bool("psort.measure", false,
	"re-measure the dispatch crossover constants (radixMinLen, parMinPerWorker) and report; skipped by default")

// timeSort returns the best-of-reps wall time of one sort call.
func timeSort(reps int, base, buf []elem.KV16, f func([]elem.KV16)) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		copy(buf, base)
		start := time.Now()
		f(buf)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// TestReportDispatchCrossovers is the measurement harness behind the
// constants in plan.go. It is a report, not an assertion — crossovers
// are host-dependent, so the chosen constants live in plan.go with the
// measured numbers in their doc comment, and this harness exists to
// re-derive them: go test ./internal/psort -run Crossover -psort.measure -v
func TestReportDispatchCrossovers(t *testing.T) {
	if !*measure {
		t.Skip("pass -psort.measure to run the dispatch-constant measurement")
	}
	rng := rand.New(rand.NewPCG(61, 62))

	// Crossover 1: sequential radix vs stable comparison sort, small n.
	t.Log("radixMinLen crossover (KV16, sequential):")
	for _, n := range []int{48, 64, 96, 128, 192, 256, 384, 512, 1024} {
		base := randKV(rng, n, 1<<62)
		buf := make([]elem.KV16, n)
		reps := 200_000 / n
		cmpT := timeSort(reps, base, buf, func(vs []elem.KV16) { sortStable(vs) })
		lsdT := timeSort(reps, base, buf, func(vs []elem.KV16) { radixLSD[elem.KV16](kvc, vs, 1) })
		msdT := timeSort(reps, base, buf, func(vs []elem.KV16) { radixMSD[elem.KV16](kvc, vs, 1) })
		t.Logf("  n=%5d  stable=%8v  lsd=%8v  msd=%8v", n, cmpT, lsdT, msdT)
	}

	// Crossover 2: per-digit parallel machinery overhead vs the
	// sequential engine. On a many-core host this shows the speedup
	// floor; on a 1-core host it shows pure overhead — the quantity
	// parMinPerWorker guards against either way.
	t.Log("parMinPerWorker crossover (KV16, w=1 vs parallel machinery):")
	for _, n := range []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10} {
		base := randKV(rng, n, 1<<62)
		buf := make([]elem.KV16, n)
		reps := 4_000_000 / n
		if reps < 3 {
			reps = 3
		}
		seq := timeSort(reps, base, buf, func(vs []elem.KV16) { radixLSD[elem.KV16](kvc, vs, 1) })
		par2 := timeSort(reps, base, buf, func(vs []elem.KV16) { radixLSD[elem.KV16](kvc, vs, 2) })
		par4 := timeSort(reps, base, buf, func(vs []elem.KV16) { radixLSD[elem.KV16](kvc, vs, 4) })
		msd2 := timeSort(reps, base, buf, func(vs []elem.KV16) { radixMSD[elem.KV16](kvc, vs, 2) })
		t.Logf("  n=%6d  w1=%8v  lsd-w2=%8v  lsd-w4=%8v  msd-w2=%8v", n, seq, par2, par4, msd2)
	}

	// msdInsertion sweep: bucket base-case cutoff.
	t.Log("msdInsertion is swept indirectly: rerun with edited constant; "+
		"measured flat 48..96 on KV16 1M at w=1, see plan.go")
}

func sortStable(vs []elem.KV16) {
	Sort[elem.KV16](closureKV{}, vs, 1)
}
