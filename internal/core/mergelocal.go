package core

import (
	"demsort/internal/cluster"
	"demsort/internal/elem"
	"demsort/internal/xmerge"
)

// mergeLocal is phase 3 (§IV third phase): every PE merges its R
// sorted run pieces into the final output file, reading and writing
// each element exactly once with no communication. Input blocks are
// prefetched one extent ahead per run (overlapping I/O with merging)
// and deallocated as soon as they are consumed, so the output can
// recycle them — the (nearly) in-place operation of §IV-E.
//
// The merge is xmerge.MergeStream, block-at-a-time: each stream exposes
// its current decoded extent as a slice and output accumulates in a
// block-sized buffer that is bulk-encoded per flush — decode → merge →
// encode over slices, never element-at-a-time through reader/writer
// calls.
//
// With a single run the piece already is the sorted output and the
// phase costs no I/O at all; together with run formation that gives
// the "only 2 I/Os per block" behaviour the paper notes for N < M
// (the MinuteSort regime).
func mergeLocal[T any](c elem.Codec[T], n *cluster.Node, cfg *Config, d derived, files []File) (File, error) {
	n.SetPhase(PhaseMerge)
	if len(files) == 1 {
		n.Barrier()
		return files[0], nil
	}

	r := len(files)
	// 2 blocks per run (current + prefetch) plus the output buffer.
	if cfg.MemElems > 0 {
		n.Mem.MustAcquire(int64(2*r+1) * int64(d.BElem))
		defer n.Mem.Release(int64(2*r+1) * int64(d.BElem))
	}

	readers := make([]*reader[T], r)
	for i, f := range files {
		readers[i] = newReader(c, n.Vol, f, true)
	}
	w := newWriter(c, n.Vol)
	xmerge.MergeStream(c, r, d.BElem, func(i int) []T { return readers[i].nextBlock() }, func(out []T) error {
		w.addSlice(out)
		n.AddCPU(cfg.Model.MergeCPU(int64(len(out)), r) + cfg.Model.ScanCPU(int64(len(out))))
		return nil
	})
	outFile := w.finish()
	n.Vol.Drain()
	n.Barrier()
	return outFile, nil
}
