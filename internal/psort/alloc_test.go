//go:build !race

// The allocation pin for the radix engine's headline claim: no n-sized
// element gather buffer. Excluded under -race because the race
// runtime's sync.Pool instrumentation drops pooled buffers at random,
// which makes allocation deltas meaningless there.

package psort

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"demsort/internal/elem"
)

// minAllocBytes returns the smallest single-call TotalAlloc delta
// across reps — the steady-state allocation cost of f once pools are
// warm, immune to a stray pool miss or GC-emptied class.
func minAllocBytes(reps int, f func()) uint64 {
	var m runtime.MemStats
	best := ^uint64(0)
	for i := 0; i < reps; i++ {
		runtime.ReadMemStats(&m)
		before := m.TotalAlloc
		f()
		runtime.ReadMemStats(&m)
		if d := m.TotalAlloc - before; d < best {
			best = d
		}
	}
	return best
}

// TestMSDEliminatesGatherBuffer: with pools warm, a sequential sort of
// n KV16 elements allocates no element-sized scratch — no n-element
// gather buffer (≈ 16n bytes, which could never come from the byte
// pool since []T may hold pointers), the elements are permuted in
// place. The budget half of the claim lives in core's
// TestRunFormScratchCharged.
func TestMSDEliminatesGatherBuffer(t *testing.T) {
	const n = 1 << 16
	rng := rand.New(rand.NewPCG(51, 52))
	base := randKV(rng, n, 1<<62)
	buf := make([]elem.KV16, n)

	// Warm the pair/histogram pool classes.
	copy(buf, base)
	Sort[elem.KV16](kvc, buf, 1)

	got := minAllocBytes(6, func() {
		copy(buf, base)
		Sort[elem.KV16](kvc, buf, 1)
	})
	t.Logf("steady-state bytes/sort: %d", got)
	if got >= n*16/4 {
		t.Fatalf("sort allocated %d bytes, want < %d: element-sized scratch is back", got, n*16/4)
	}
}
