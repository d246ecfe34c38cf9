package job

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"demsort/internal/blockio"
	"demsort/internal/bufpool"
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
// (SortExact), striped re-distributes the run anyway and takes cheaper
// approximate cuts — and in where a sorted run goes: canonical leaves
// each PE's segment on its local disks, striped stripes it over the
// machine. That is the store callback: it receives elements
// [segStart, segStart+len(seg)) of run number run, runLen elements long,
// and seg is dead once it returns (the next run's segment is merged into
// the same storage). Every PE calls store for every run (collective work
// is allowed in it). salt separates the callers' block shuffles.
//
// I/O is overlapped with sorting and communication: while run i is
// processed, run i+1's blocks are already being fetched and run i−1's
// output is still draining (§IV-E "Overlapping"). The spans are freed
// as they are read; the writes store issued are drained on return.
// FormRuns returns the run count R.
func (j *Job[T]) FormRuns(n *cluster.Node, spans []blockio.Span, salt uint64, sortRun RunSort[T],
	store func(run int, runLen, segStart int64, seg []T) error) (int, error) {
	c, cfg, sz, model := j.c, j.cfg, j.c.Size(), &j.cfg.Model
	if cfg.Randomize {
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(n.Rank)+salt))
		rng.Shuffle(len(spans), func(a, b int) { spans[a], spans[b] = spans[b], spans[a] })
	}
	bpr := j.BlocksPerRun
	// A degenerate empty input still runs the protocol once.
	runs := max(int(n.AllReduceInt64(int64((len(spans)+bpr-1)/bpr), "max")), 1)

	// Asynchronous block fetches for one run ahead.
	type pending struct {
		span   blockio.Span
		raw    []byte
		handle blockio.Handle
	}
	fetchRun := func(r int) []pending {
		lo := min(r*bpr, len(spans))
		mine := spans[lo:min(lo+bpr, len(spans))]
		ps := make([]pending, 0, len(mine))
		for _, sp := range mine {
			raw := bufpool.Get(sp.Bytes)
			ps = append(ps, pending{span: sp, raw: raw, handle: n.Vol.ReadAsync(sp.ID, raw)})
		}
		return ps
	}
	done := func(p pending) { // decoded: recycle the buffer and the block
		bufpool.Put(p.raw)
		n.Vol.Free(p.span.ID)
	}

	// One run's chunk and one merged segment are dead before the next
	// run's are built, so the runs share their two buffers.
	var chunk, seg []T
	cur := fetchRun(0)
	for r := 0; r < runs; r++ {
		next := fetchRun(r + 1) // overlap: prefetch while we sort

		var chunkLen int64
		for _, p := range cur {
			chunkLen += int64(p.span.Bytes / sz)
		}
		n.Mem.MustAcquire(chunkLen)
		chunk = slices.Grow(chunk[:0], int(chunkLen))
		if runs == 1 {
			// §IV-E: "Immediately after a block is read from disk, it
			// is sorted, while the disk is busy with subsequent
			// blocks"; the chunk is then merged, not sorted.
			blocks := make([][]T, 0, len(cur))
			for _, p := range cur {
				n.Vol.Wait(p.handle)
				blk := elem.DecodeSlice(c, p.raw, p.span.Bytes/sz)
				done(p)
				sortChunkBudgeted(c, n, blk)
				n.AddCPU(model.SortCPU(int64(len(blk))) + model.ScanCPU(int64(len(blk))))
				blocks = append(blocks, blk)
			}
			chunk = xmerge.AppendMerge(c, chunk, blocks)
			n.AddCPU(model.MergeCPU(chunkLen, len(blocks)))
		} else {
			for _, p := range cur {
				n.Vol.Wait(p.handle)
				chunk = elem.AppendDecode(c, chunk, p.raw, p.span.Bytes/sz)
				done(p)
			}
			n.AddCPU(model.ScanCPU(chunkLen))
			sortChunkBudgeted(c, n, chunk)
			n.AddCPU(model.SortCPU(chunkLen))
		}
		cur = next

		var segStart, runLen int64
		var err error
		if seg, segStart, runLen, err = sortRun(n, chunk, seg[:0]); err != nil {
			return 0, fmt.Errorf("run %d: %w", r, err)
		}
		if err := store(r, runLen, segStart, seg); err != nil {
			return 0, err
		}
		n.Mem.Release(2 * int64(len(seg)))
	}
	n.Vol.Drain()
	return runs, nil
}

// SortExact is the RunSort with exact splitting (§IV-B): the run length
// is agreed, dselect.Cuts finds the local positions of the ranks
// N/P, 2N/P, …, and SortAcross leaves every PE with exactly its share.
func (j *Job[T]) SortExact(n *cluster.Node, chunk, dst []T) ([]T, int64, int64, error) {
	runLen := n.AllReduceInt64(int64(len(chunk)), "sum")
	bounds := RankBounds(runLen, n.P)
	seg := j.SortAcross(n, chunk, dselect.Cuts(j.c, n, chunk, bounds[1:n.P]), dst)
	if segLen := bounds[n.Rank+1] - bounds[n.Rank]; int64(len(seg)) != segLen {
		return nil, 0, 0, fmt.Errorf("PE %d received %d elements, expected segment of %d", n.Rank, len(seg), segLen)
	}
	return seg, bounds[n.Rank], runLen, nil
}

// SortAcross is the tail of the distributed internal sort that ends
// every run and, in the striped sorter, every merge batch: this PE's
// sorted chunk is cut at cuts (local positions for ranks 1..P-1), part q
// travels to PE q, and the P sorted pieces arriving here are merged onto
// dst, whose storage a caller hands back from its previous call. Cuts
// that are order-consistent across the PEs make the results concatenate,
// in rank order, to the sorted union of all chunks.
//
// Budget: chunk arrives charged at len(chunk) elements and is dead on
// return (once encoded, its storage takes the arriving pieces) — that
// charge is released here, after the encoded send copies have been
// charged next to it. The result comes back charged at twice its length
// (decoded pieces + merged output), which the caller releases when it is
// done with it.
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
	for _, b := range recv {
		got += int64(len(b) / sz)
	}
	n.Mem.MustAcquire(3 * got) // received encodings + decoded pieces + merged output
	buf := slices.Grow(chunk[:0], int(got))
	pieces := make([][]T, len(recv))
	for q, b := range recv {
		at := len(buf)
		buf = elem.AppendDecode(c, buf, b, len(b)/sz)
		pieces[q] = buf[at:]
	}
	cluster.RecycleRecv(recv)
	n.Mem.Release(got) // received encodings recycled
	merged := xmerge.AppendMerge(c, slices.Grow(dst, int(got)), pieces)
	n.AddCPU(model.MergeCPU(got, n.P) + model.ScanCPU(got))
	return merged
}
