package core

import (
	"fmt"

	"demsort/internal/cluster"
	"demsort/internal/job"
)

// mergeLocal is phase 4 (§IV third phase): every PE merges its R
// sorted run pieces with no communication (Job.MergeFiles) and returns
// how many elements it emitted. Without a sink a single run's piece
// already is the sorted output and the phase costs no I/O at all. The
// paper's "only 2 I/Os per block" for N < M (the MinuteSort regime)
// still does not hold: at R = 1 the selection reads 0.02–0.17×N of
// probe blocks, and with a sink the run written in run formation is
// read back here.
func mergeLocal[T any](j *job.Job[T], n *cluster.Node, files []job.File,
	sink func(rank int, encoded []byte) error) (int64, error) {
	n.SetPhase(PhaseMerge)
	if sink == nil && len(files) == 1 {
		n.Barrier()
		return files[0].N, nil
	}
	// A read window per run plus the output block, and without a sink
	// the rest of the writer's stage.
	held := j.MergeBuffers
	if sink == nil {
		held += int64((j.WriteStage - 1) * j.BElem)
	}
	n.Mem.MustAcquire(held)
	defer n.Mem.Release(held)
	emitted, err := j.MergeFiles(n, files, sink)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	n.Vol.Drain()
	n.Barrier()
	return emitted, nil
}
