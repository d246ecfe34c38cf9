package core

import (
	"fmt"

	"demsort/internal/cluster"
	"demsort/internal/elem"
	"demsort/internal/job"
	"demsort/internal/xmerge"
)

// mergeLocal is phase 4 (§IV third phase): every PE merges its R
// sorted run pieces, reading each element exactly once with no
// communication, and returns how many elements it emitted. Input blocks
// are prefetched one extent ahead per run (overlapping I/O with
// merging) and deallocated as soon as they are consumed, so the output
// can recycle them — the (nearly) in-place operation of §IV-E.
//
// The merge is xmerge.MergeStream, block-at-a-time — decode → merge →
// encode over slices. Each output block goes one way: to sink
// (Job.OutputSink) when the output leaves, else onto the volume as the
// rank's output file. Without a sink a single run's piece already is
// the sorted output and the phase costs no I/O at all; together with
// run formation that gives the "only 2 I/Os per block" behaviour the
// paper notes for N < M (the MinuteSort regime).
func mergeLocal[T any](c elem.Codec[T], n *cluster.Node, cfg *Config, pl *job.Plan, files []File,
	sink func(rank int, encoded []byte) error) (int64, error) {
	n.SetPhase(PhaseMerge)
	if sink == nil && len(files) == 1 {
		n.Barrier()
		return files[0].N, nil
	}

	r := len(files)
	// 2 blocks per run (current + prefetch) plus the output buffer.
	n.Mem.MustAcquire(pl.MergeBuffers)
	defer n.Mem.Release(pl.MergeBuffers)

	readers := make([]*reader[T], r)
	for i, f := range files {
		readers[i] = newReader(c, n.Vol, f, true)
	}
	w := newWriter(c, n.Vol) // with a sink, only its block-sized encode buffer is used
	var emitted int64
	err := xmerge.MergeStream(c, r, pl.BElem, func(i int) []T { return readers[i].nextBlock() }, func(out []T) error {
		emitted += int64(len(out))
		if sink == nil {
			w.addSlice(out)
		} else if err := sink(n.Rank, elem.AppendEncode(c, w.enc[:0], out)); err != nil {
			return err
		}
		n.AddCPU(cfg.Model.MergeCPU(int64(len(out)), r) + cfg.Model.ScanCPU(int64(len(out))))
		return nil
	})
	w.finish()
	if err != nil {
		return 0, fmt.Errorf("core: output sink, rank %d: %w", n.Rank, err)
	}
	n.Vol.Drain()
	n.Barrier()
	return emitted, nil
}
