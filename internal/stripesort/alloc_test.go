//go:build !race

// The race detector randomises sync.Pool reuse, so the merge's pooled
// scratch would look like a fresh allocation there.

package stripesort

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"demsort/internal/elem"
)

// TestExtractAllocatesNothing: once warm, a batch merge allocates
// nothing — the pieces are merged where they lie into the pe's batch
// buffer, through its reused sequence list and pooled merge scratch.
func TestExtractAllocatesNothing(t *testing.T) {
	f := newExtractFixture(rand.New(rand.NewPCG(5, 6)), 6, 1<<40)
	onePE(t, func(s *pe[elem.KV16]) error {
		pending := make([][]piece[elem.KV16], len(f.runs))
		batches := func() {
			for r := range pending {
				pending[r] = pending[r][:0]
			}
			for _, e := range f.pred {
				vs := f.runs[e.run][e.blk*fixtureBElem : min(int(e.blk+1)*fixtureBElem, len(f.runs[e.run]))]
				pending[e.run] = append(pending[e.run], piece[elem.KV16]{pos: e.blk * fixtureBElem, elems: vs})
			}
			s.extract(pending, &f.pred[len(f.pred)/2])
			s.extract(pending, nil)
		}
		batches() // warm the batch buffer, the lists and the merge pool
		if avg := testing.AllocsPerRun(20, batches); avg > 0 {
			return fmt.Errorf("two warmed batch merges allocate %.1f objects, want 0", avg)
		}
		return nil
	})
}
