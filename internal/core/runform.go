package core

import (
	"fmt"
	"math/rand/v2"

	"demsort/internal/blockio"
	"demsort/internal/bufpool"
	"demsort/internal/cluster"
	"demsort/internal/dselect"
	"demsort/internal/elem"
	"demsort/internal/job"
	"demsort/internal/xmerge"
)

// localRun is this PE's piece of one global run after phase 1: the
// elements of global run positions [SegStart, SegStart+SegLen) sorted
// on local disk, plus the in-memory sample (every K-th run position).
type localRun[T any] struct {
	file     File
	segStart int64
	segLen   int64
	runLen   int64
	sample   []T // elements at global run positions ≡ 0 (mod K)
}

// runFormation executes phase 1 (§IV, first phase): R = N/M global
// runs, each assembled from (randomly chosen) local blocks on every
// PE, sorted across the machine with the distributed internal sort
// (§IV-B), written back to local disks, and sampled. I/O is overlapped
// with sorting and communication: while run i is processed, run i+1's
// blocks are already being fetched and run i−1's output is still
// draining (§IV-E "Overlapping").
func runFormation[T any](c elem.Codec[T], n *cluster.Node, cfg *Config, d derived, input File) ([]localRun[T], error) {
	n.SetPhase(PhaseRunForm)

	// Work on whole blocks: the input file is block-aligned by
	// construction (LoadInput).
	exts := input.Extents
	if cfg.Randomize {
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(n.Rank)+0xD1CE))
		rng.Shuffle(len(exts), func(i, j int) { exts[i], exts[j] = exts[j], exts[i] })
	}
	bpr := d.BlocksPerRun
	myRuns := (len(exts) + bpr - 1) / bpr
	runs := int(n.AllReduceInt64(int64(myRuns), "max"))
	if runs == 0 {
		runs = 1 // degenerate empty input still runs the protocol once
	}

	singleRun := runs == 1 && cfg.SingleRunOpt

	// Asynchronous block fetches for one run ahead.
	type pending struct {
		ext    Extent
		raw    []byte
		handle blockio.Handle
	}
	fetchRun := func(r int) []pending {
		lo := r * bpr
		if lo >= len(exts) {
			return nil
		}
		hi := lo + bpr
		if hi > len(exts) {
			hi = len(exts)
		}
		ps := make([]pending, 0, hi-lo)
		for _, e := range exts[lo:hi] {
			raw := bufpool.Get(e.Len * c.Size())
			ps = append(ps, pending{ext: e, raw: raw, handle: n.Vol.ReadAsync(e.ID, raw)})
		}
		return ps
	}

	out := make([]localRun[T], 0, runs)
	cur := fetchRun(0)
	for r := 0; r < runs; r++ {
		next := fetchRun(r + 1) // overlap: prefetch while we sort

		// Collect run r's local chunk.
		var chunkLen int
		for _, p := range cur {
			chunkLen += p.ext.Len
		}
		n.Mem.MustAcquire(int64(chunkLen))
		chunk := make([]T, 0, chunkLen)
		if singleRun {
			// §IV-E: "Immediately after a block is read from disk, it
			// is sorted, while the disk is busy with subsequent
			// blocks"; the chunk is then merged, not sorted.
			blocks := make([][]T, 0, len(cur))
			for _, p := range cur {
				n.Vol.Wait(p.handle)
				blk := elem.DecodeSlice(c, p.raw, p.ext.Len)
				bufpool.Put(p.raw)
				job.SortChunkBudgeted(c, n, &cfg.Common, blk)
				n.AddCPU(cfg.Model.SortCPU(int64(len(blk))) + cfg.Model.ScanCPU(int64(len(blk))))
				blocks = append(blocks, blk)
				n.Vol.Free(p.ext.ID)
			}
			chunk = xmerge.AppendMerge(c, chunk, blocks)
			n.AddCPU(cfg.Model.MergeCPU(int64(len(chunk)), len(blocks)))
		} else {
			for _, p := range cur {
				n.Vol.Wait(p.handle)
				chunk = elem.AppendDecode(c, chunk, p.raw, p.ext.Len)
				bufpool.Put(p.raw)
				n.Vol.Free(p.ext.ID)
			}
			n.AddCPU(cfg.Model.ScanCPU(int64(len(chunk))))
			job.SortChunkBudgeted(c, n, &cfg.Common, chunk)
			n.AddCPU(cfg.Model.SortCPU(int64(len(chunk))))
		}
		cur = next

		// Distributed sort of the run: exact splits, all-to-all, merge.
		runLen := n.AllReduceInt64(int64(len(chunk)), "sum")
		bounds := job.RankBounds(runLen, n.P)
		cuts := dselect.Cuts(c, n, chunk, bounds[1:n.P])

		send := job.EncodeParts(c, chunk, cuts)
		n.Mem.MustAcquire(int64(chunkLen)) // encoded send copies
		n.AddCPU(cfg.Model.ScanCPU(int64(len(chunk))))
		chunk = nil
		n.Mem.Release(int64(chunkLen)) // decoded chunk dropped

		recv := n.AllToAllv(send)
		n.Mem.Release(int64(chunkLen)) // send copies handed off to receivers
		segLen := bounds[n.Rank+1] - bounds[n.Rank]
		n.Mem.MustAcquire(segLen)     // received encodings
		n.Mem.MustAcquire(2 * segLen) // decoded pieces + merged output
		pieces := make([][]T, n.P)
		var got int64
		for q := 0; q < n.P; q++ {
			cnt := len(recv[q]) / c.Size()
			pieces[q] = elem.DecodeSlice(c, recv[q], cnt)
			got += int64(cnt)
		}
		cluster.RecycleRecv(recv)
		n.Mem.Release(segLen) // received encodings recycled
		if got != segLen {
			return nil, fmt.Errorf("core: run %d: PE %d received %d elements, expected segment of %d", r, n.Rank, got, segLen)
		}
		merged := xmerge.Merge(c, pieces)
		n.AddCPU(cfg.Model.MergeCPU(segLen, n.P) + cfg.Model.ScanCPU(segLen))

		// Sample every K-th global run position (§IV-A) and persist
		// the segment to local disk.
		lr := localRun[T]{segStart: bounds[n.Rank], segLen: segLen, runLen: runLen}
		for j := firstMultiple(lr.segStart, d.sampleK) - lr.segStart; j < segLen; j += d.sampleK {
			lr.sample = append(lr.sample, merged[j])
		}
		// Held until the splitters are known; released by Sort after
		// multiwaySelection (releaseSamples).
		n.Mem.MustAcquire(int64(len(lr.sample)))

		w := newWriter(c, n.Vol)
		w.addSlice(merged)
		lr.file = w.finish()
		n.Mem.Release(2 * segLen)
		out = append(out, lr)
	}
	n.Vol.Drain()
	n.Barrier()
	return out, nil
}

// firstMultiple returns the smallest multiple of k that is >= x.
func firstMultiple(x, k int64) int64 {
	return (x + k - 1) / k * k
}
