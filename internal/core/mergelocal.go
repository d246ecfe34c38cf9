package core

import (
	"demsort/internal/cluster"
	"demsort/internal/elem"
	"demsort/internal/pq"
)

// mergeLocal is phase 3 (§IV third phase): every PE merges its R
// sorted run pieces into the final output file, reading and writing
// each element exactly once with no communication. Input blocks are
// prefetched one extent ahead per run (overlapping I/O with merging)
// and deallocated as soon as they are consumed, so the output can
// recycle them — the (nearly) in-place operation of §IV-E.
//
// The merge runs block-at-a-time on the key-inline tournament tree:
// each stream exposes its current decoded extent as a slice, the tree
// replays on normalized uint64 keys (comparator fallback only on equal
// prefix keys), and output accumulates in a block-sized buffer that is
// bulk-encoded per flush — decode → merge → encode over slices, never
// element-at-a-time through reader/writer calls.
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

	key, exact := elem.KeyFn(c)
	type stream struct {
		cur []T
		pos int
	}
	readers := make([]*reader[T], r)
	srcs := make([]stream, r)
	keys := make([]uint64, r)
	live := make([]bool, r)
	for i, f := range files {
		readers[i] = newReader(c, n.Vol, f, true)
		if blk := readers[i].nextBlock(); len(blk) > 0 {
			srcs[i].cur = blk
			keys[i] = key(blk[0])
			live[i] = true
		}
	}
	var tie func(a, b int) bool
	if !exact {
		tie = func(a, b int) bool {
			return c.Less(srcs[a].cur[srcs[a].pos], srcs[b].cur[srcs[b].pos])
		}
	}
	lt := pq.NewKeyTree(r, keys, live, tie)
	w := newWriter(c, n.Vol)
	out := make([]T, 0, d.BElem)
	flush := func() {
		if len(out) == 0 {
			return
		}
		w.addSlice(out)
		n.AddCPU(cfg.Model.MergeCPU(int64(len(out)), r) + cfg.Model.ScanCPU(int64(len(out))))
		out = out[:0]
	}
	for !lt.Empty() {
		i := lt.Win()
		s := &srcs[i]
		out = append(out, s.cur[s.pos])
		s.pos++
		if len(out) == d.BElem {
			flush()
		}
		if s.pos < len(s.cur) {
			lt.Replace(key(s.cur[s.pos]))
		} else if blk := readers[i].nextBlock(); len(blk) > 0 {
			s.cur, s.pos = blk, 0
			lt.Replace(key(blk[0]))
		} else {
			lt.Retire()
		}
	}
	flush()
	outFile := w.finish()
	n.Vol.Drain()
	n.Barrier()
	return outFile, nil
}
