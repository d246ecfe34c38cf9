package core

import (
	"fmt"

	"demsort/internal/cluster"
	"demsort/internal/dselect"
	"demsort/internal/elem"
	"demsort/internal/job"
)

// localRun is this PE's piece of one global run after phase 1: the
// elements of its segment, run positions [segStart, segStart+segLen),
// sorted on local disk, plus the in-memory sample (every K-th run position).
type localRun[T any] struct {
	file     job.File
	segStart int64
	segLen   int64
	runLen   int64
	sample   []T // elements at global run positions ≡ 0 (mod K)
}

// runFormation executes phase 1 (§IV, first phase) — job.FormRuns, the
// run formation both mergesorts share — with CANONICALMERGESORT's exactly
// split runs and its way of storing one: each PE merges the parts of its
// segment that SortExact received straight into a run file on its local
// disks, block by block through the writer's tail (job.Writer.Merge), and
// samples every K-th global run position into memory as the blocks pass
// (§IV-A). No merged segment is held, only the writer's stage (charged),
// whose blocks go to the store a stretch at a time.
func runFormation[T any](c elem.Codec[T], j *job.Job[T], n *cluster.Node, input *job.Input) ([]localRun[T], error) {
	n.SetPhase(PhaseRunForm)
	var out []localRun[T]
	_, err := j.FormRuns(n, input, 0xD1CE, func(_ int, chunk dselect.Sorted[T]) error {
		return j.SortExact(n, chunk, func(parts [][]T, segStart, runLen int64) error {
			lr := localRun[T]{segStart: segStart, runLen: runLen}
			next := firstMultiple(segStart, j.K) - segStart // the next sampled segment position
			w := job.NewStagedWriter(c, n.Vol, j.WriteStage)
			stage := int64(j.WriteStage * j.BElem)
			n.Mem.MustAcquire(stage) // the writer's stage
			err := w.Merge(len(parts), func(i int) []T { p := parts[i]; parts[i] = nil; return p }, nil, func(blk []T) {
				for ; next < lr.segLen+int64(len(blk)); next += j.K {
					lr.sample = append(lr.sample, blk[next-lr.segLen])
				}
				lr.segLen += int64(len(blk))
			})
			// Held until gatherRunsMeta has encoded it.
			n.Mem.MustAcquire(int64(len(lr.sample)))
			lr.file = w.Finish()
			n.Mem.Release(stage)
			out = append(out, lr)
			return err
		})
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

// segment returns PE pe's segment [lo, hi) of a run of runLen elements
// among p PEs: the exact share job.SortExact gives it.
func segment(runLen int64, pe, p int) (lo, hi int64) {
	b := job.RankBounds(runLen, p)
	return b[pe], b[pe+1]
}

// sampleCount is the size of segment [lo, hi)'s sample share, its run
// positions ≡ 0 (mod k).
func sampleCount(lo, hi, k int64) int {
	return int(firstMultiple(hi, k)/k - firstMultiple(lo, k)/k)
}
