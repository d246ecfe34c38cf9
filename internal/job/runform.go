package job

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"demsort/internal/blockio"
	"demsort/internal/cluster"
	"demsort/internal/dselect"
	"demsort/internal/elem"
	"demsort/internal/xmerge"
)

// RunSort is the distributed internal sort of one run (§IV-B) as FormRuns
// calls it on every PE: chunk is this PE's sorted share of the run,
// charged at its length and dead on return; the result is this PE's
// piece of the sorted run — merged onto dst, charged at twice its length
// — with the run position it starts at and the length of the whole run.
// The pieces concatenate in rank order to the sorted run; how evenly
// they are cut is the implementation's choice.
type RunSort[T any] func(n *cluster.Node, chunk, dst []T) (seg []T, segStart, runLen int64, err error)

// FormRuns is phase 1 of both mergesorts (§III and §IV, first phase):
// R = N/M global runs, each assembled from (randomly chosen) local
// blocks on every PE and sorted across the machine with the distributed
// internal sort sortRun. The algorithms differ in how exactly a run must
// be split — canonical needs every PE to hold exactly its 1/P share
// (SortExact, by dselect.Split), striped re-distributes the run anyway
// and takes cheaper approximate cuts — and in where a sorted run goes:
// canonical leaves each PE's segment on its local disks, striped stripes
// it over the machine. That is the store callback: it receives elements
// [segStart, segStart+len(seg)) of run number run, runLen elements long,
// charged at 2·len(seg) as sortRun returns them, and owns that charge:
// store releases it. seg is dead once store returns (the next run's
// segment is merged into the same storage). Every PE calls store for
// every run (collective work is allowed in it). salt separates the
// callers' block shuffles.
//
// I/O is overlapped with sorting and communication: while run i is
// processed, run i+1's blocks are already being fetched and run i−1's
// output is still draining (§IV-E "Overlapping"). Each input block is
// read once, from wherever Load left it, into its run's buffer, and the
// spans are freed as they are read. The run is sorted where it was read
// — sortRun gets a view of the buffer (elem.View), not a decoded copy —
// and at R = 1 each block is sorted in place as it arrives and the
// blocks are merged. The writes store issued are drained on return. An
// input read error ends run formation with that error. FormRuns returns
// the run count R.
func (j *Job[T]) FormRuns(n *cluster.Node, in *Input, salt uint64, sortRun RunSort[T],
	store func(run int, runLen, segStart int64, seg []T) error) (int, error) {
	c, cfg, sz, model := j.c, j.cfg, j.c.Size(), &j.cfg.Model
	spans := in.Spans
	if cfg.Randomize {
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(n.Rank)+salt))
		rng.Shuffle(len(spans), func(a, b int) { spans[a], spans[b] = spans[b], spans[a] })
	}
	bpr := j.BlocksPerRun
	// A degenerate empty input still runs the protocol once.
	runs := max(int(n.AllReduceInt64(int64((len(spans)+bpr-1)/bpr), "max")), 1)

	// Each run is read, one run ahead, into one of two buffers, every
	// block at its offset, and sorted where it was read (elem.View). The
	// two buffers serve the whole phase: sortRun leaves its chunk dead on
	// return, so run r's buffer takes run r+2 only once sortRun(r) has
	// returned. They are run-sized, which no later phase asks bufpool
	// for, so they are not pooled: parked in the pool they would outlive
	// the phase by up to two collections.
	var bufs [2][]byte
	var handles [2][]blockio.Handle
	runSpans := func(r int) []blockio.Span {
		lo := min(r*bpr, len(spans))
		return spans[lo:min(lo+bpr, len(spans))]
	}
	fetchRun := func(r int) error {
		buf, hs, size := &bufs[r%2], handles[r%2][:0], 0
		for _, sp := range runSpans(r) {
			size += sp.Bytes
		}
		if cap(*buf) < size {
			*buf = make([]byte, size)
		}
		*buf = (*buf)[:size]
		off := 0
		for _, sp := range runSpans(r) {
			h, err := in.Read(sp, (*buf)[off:off+sp.Bytes])
			if err != nil {
				return err
			}
			hs, off = append(hs, h), off+sp.Bytes
		}
		handles[r%2] = hs
		return nil
	}

	// One merged segment is dead before the next run's is built, so the
	// runs share its storage.
	var seg []T
	if err := fetchRun(0); err != nil {
		return 0, err
	}
	for r := 0; r < runs; r++ {
		if err := fetchRun(r + 1); err != nil { // overlap: prefetch while we sort
			return 0, err
		}

		// A block is read only after its Wait: View decodes a non-POD
		// codec's bytes at the call.
		mine, buf, hs := runSpans(r), bufs[r%2], handles[r%2]
		chunkLen := int64(len(buf) / sz)
		n.Mem.MustAcquire(chunkLen)
		var chunk []T
		if runs == 1 {
			// §IV-E: "Immediately after a block is read from disk, it
			// is sorted, while the disk is busy with subsequent
			// blocks"; the blocks are then merged, not sorted, into a
			// fresh chunk (the merge cannot run in place).
			blocks := make([][]T, len(mine))
			off := 0
			for i, sp := range mine {
				n.Vol.Wait(hs[i])
				in.Release(sp)
				blk := elem.View(c, buf[off:off+sp.Bytes])
				off += sp.Bytes
				sortChunkBudgeted(c, n, blk)
				n.AddCPU(model.SortCPU(int64(len(blk))) + model.ScanCPU(int64(len(blk))))
				blocks[i] = blk
			}
			chunk = xmerge.AppendMerge(c, make([]T, 0, chunkLen), blocks)
			n.AddCPU(model.MergeCPU(chunkLen, len(blocks)))
		} else {
			for i, sp := range mine {
				n.Vol.Wait(hs[i])
				in.Release(sp)
			}
			chunk = elem.View(c, buf)
			n.AddCPU(model.ScanCPU(chunkLen))
			sortChunkBudgeted(c, n, chunk)
			n.AddCPU(model.SortCPU(chunkLen))
		}

		var segStart, runLen int64
		var err error
		if seg, segStart, runLen, err = sortRun(n, chunk, seg[:0]); err != nil {
			return 0, fmt.Errorf("run %d: %w", r, err)
		}
		if err := store(r, runLen, segStart, seg); err != nil {
			return 0, err
		}
	}
	n.Vol.Drain()
	return runs, nil
}

// SortExact is the RunSort with exact splitting (§IV-B): dselect.Split
// finds the local positions of the ranks N/P, 2N/P, … in one sample
// round, and SortAcross leaves every PE with exactly its share.
func (j *Job[T]) SortExact(n *cluster.Node, chunk, dst []T) ([]T, int64, int64, error) {
	cuts, runLen := dselect.Split(j.c, n, chunk, func(total int64) []int64 { return RankBounds(total, n.P)[1:n.P] })
	bounds := RankBounds(runLen, n.P)
	seg := j.SortAcross(n, chunk, cuts, dst)
	if segLen := bounds[n.Rank+1] - bounds[n.Rank]; int64(len(seg)) != segLen {
		return nil, 0, 0, fmt.Errorf("PE %d received %d elements, expected segment of %d", n.Rank, len(seg), segLen)
	}
	return seg, bounds[n.Rank], runLen, nil
}

// SortAcross is the tail of the distributed internal sort that ends
// every run and, in the striped sorter, every merge batch: this PE's
// sorted chunk is cut at cuts (local positions for ranks 1..P-1), part q
// travels to PE q, and the P sorted pieces arriving here are merged,
// from views of the received buffers (elem.View), onto dst, whose
// storage a caller hands back from its previous call. Cuts that are
// order-consistent across the PEs make the results concatenate, in rank
// order, to the sorted union of all chunks.
//
// Budget: chunk arrives charged at len(chunk) elements and is dead on
// return — that charge is released here, after the encoded send copies
// have been charged next to it. What arrives is charged at 3·got, one
// got more than the received buffers and the merged output it holds
// (ROADMAP direction 5(d) reclaims it); the result comes back charged at
// twice its length, which the caller releases when it is done with it.
func (j *Job[T]) SortAcross(n *cluster.Node, chunk []T, cuts []int64, dst []T) []T {
	c, sz, model := j.c, j.c.Size(), &j.cfg.Model
	held := int64(len(chunk))
	send := EncodeParts(c, chunk, cuts)
	n.Mem.MustAcquire(held) // encoded send copies
	n.AddCPU(model.ScanCPU(held))
	n.Mem.Release(held) // decoded chunk dropped

	recv := n.AllToAllv(send)
	n.Mem.Release(held) // send copies handed off to receivers
	var got int64
	pieces := make([][]T, len(recv))
	for q, b := range recv {
		got += int64(len(b) / sz)
		pieces[q] = elem.View(c, b)
	}
	n.Mem.MustAcquire(3 * got) // received buffers + merged output, and one got spare
	merged := xmerge.AppendMerge(c, slices.Grow(dst, int(got)), pieces)
	cluster.RecycleRecv(recv) // the views are dead
	n.Mem.Release(got)
	n.AddCPU(model.MergeCPU(got, n.P) + model.ScanCPU(got))
	return merged
}
