package core

import (
	"fmt"

	"demsort/internal/cluster"
	"demsort/internal/elem"
	"demsort/internal/job"
)

// localRun is this PE's piece of one global run after phase 1: the
// elements of global run positions [SegStart, SegStart+SegLen) sorted
// on local disk, plus the in-memory sample (every K-th run position).
type localRun[T any] struct {
	file     job.File
	segStart int64
	segLen   int64
	runLen   int64
	sample   []T // elements at global run positions ≡ 0 (mod K)
}

// runFormation executes phase 1 (§IV, first phase) — job.FormRuns, the
// run formation both mergesorts share — with CANONICALMERGESORT's exactly
// split runs and its way of storing one: each PE's segment stays on its
// local disks, and every K-th global run position is sampled into memory
// (§IV-A).
func runFormation[T any](c elem.Codec[T], j *job.Job[T], n *cluster.Node, input *job.Input) ([]localRun[T], error) {
	n.SetPhase(PhaseRunForm)
	var out []localRun[T]
	_, err := j.FormRuns(n, input, 0xD1CE, j.SortExact, func(_ int, runLen, segStart int64, seg []T) error {
		lr := localRun[T]{segStart: segStart, segLen: int64(len(seg)), runLen: runLen}
		for i := firstMultiple(segStart, j.K) - segStart; i < lr.segLen; i += j.K {
			lr.sample = append(lr.sample, seg[i])
		}
		// Held until gatherRunsMeta has encoded it.
		n.Mem.MustAcquire(int64(len(lr.sample)))

		w := job.NewWriter(c, n.Vol)
		w.AddSlice(seg)
		lr.file = w.Finish()
		out = append(out, lr)
		n.Mem.Release(2 * lr.segLen) // the segment, written
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	n.Barrier()
	return out, nil
}

// firstMultiple returns the smallest multiple of k that is >= x.
func firstMultiple(x, k int64) int64 {
	return (x + k - 1) / k * k
}
