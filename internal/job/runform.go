package job

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"

	"demsort/internal/blockio"
	"demsort/internal/cluster"
	"demsort/internal/dselect"
	"demsort/internal/elem"
	"demsort/internal/xmerge"
)

// FormRuns is phase 1 of both mergesorts (§III and §IV, first phase):
// R = N/M global runs, each assembled from (randomly chosen) local
// blocks on every PE, sorted locally and handed to sortRun, which sorts
// it across the machine (the distributed internal sort, §IV-B) and
// stores it. The algorithms differ in how exactly a run must be split —
// canonical needs every PE to hold exactly its 1/P share (SortExact, by
// dselect.Split), striped re-distributes the run anyway and takes
// cheaper approximate cuts — and in where a sorted run goes: canonical
// merges each PE's piece straight into a run file on its local disks,
// striped stripes it over the machine. sortRun(run, chunk) gets this
// PE's sorted share of run number run, charged at chunk.Len() elements —
// and its permutation, when it has one, at permElems — and both are dead
// once it returns (SortAcross releases the charges). Every PE calls
// sortRun for every run (collective work is allowed in it). salt
// separates the callers' block shuffles.
//
// I/O is overlapped with sorting and communication: while run i is
// processed, run i+1's blocks are already being fetched and run i−1's
// output is still draining (§IV-E "Overlapping"). The fetch runs in the
// volume's virtual time: run i+1's reads are issued (Input.Issue) before
// run i is sorted, and their bytes land (Input.Fill) in the one run
// buffer once sortRun(i) has returned. Each input block is read once,
// from wherever Load left it, and the spans are freed as they are
// waited for. No record moves in the buffer it was read into:
// psort.Order sorts a view of it (elem.View) into one phase-long
// permutation, and chunk is that view read through it, which SortAcross
// gathers straight into the send vectors. At R = 1 each block is sorted
// in place as it arrives, and the blocks are merged into a chunk charged
// beside the read buffer, so chunk is in order (a nil Perm). The writes
// sortRun issued are drained on return, and the phase's dead buffers are
// collected. An input read error ends run formation with that error.
// FormRuns returns R.
func (j *Job[T]) FormRuns(n *cluster.Node, in *Input, salt uint64, sortRun func(run int, chunk dselect.Sorted[T]) error) (int, error) {
	c, cfg, sz, model := j.c, j.cfg, j.c.Size(), &j.cfg.Model
	spans := in.Spans
	if cfg.Randomize {
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(n.Rank)+salt))
		rng.Shuffle(len(spans), func(a, b int) { spans[a], spans[b] = spans[b], spans[a] })
	}
	bpr := j.BlocksPerRun
	// A degenerate empty input still runs the protocol once.
	runs := max(int(n.AllReduceInt64(int64((len(spans)+bpr-1)/bpr), "max")), 1)

	// Each run is read into the one buffer, every block at its offset,
	// and sorted where it was read (elem.View). Store reads complete
	// before they return, so a second buffer filled ahead would hide
	// nothing (ROADMAP direction 6). The buffer is run-sized, which no
	// later phase asks bufpool for, so it is not pooled.
	var buf []byte
	runSpans := func(r int) []blockio.Span {
		lo := min(r*bpr, len(spans))
		return spans[lo:min(lo+bpr, len(spans))]
	}
	var hs []blockio.Handle // the reads issued and not yet waited for, in run order
	issue := func(r int) {
		for _, sp := range runSpans(r) {
			hs = append(hs, in.Issue(sp))
		}
	}
	fill := func(r int) error {
		size := 0
		for _, sp := range runSpans(r) {
			size += sp.Bytes
		}
		if cap(buf) < size {
			buf = make([]byte, size)
		}
		buf = buf[:0]
		for _, sp := range runSpans(r) {
			if err := in.Fill(sp, buf[len(buf):len(buf)+sp.Bytes]); err != nil {
				return err
			}
			buf = buf[:len(buf)+sp.Bytes]
		}
		return nil
	}

	// The permutation of the run being sorted: one run's is dead before
	// the next run is ordered, so the runs share it.
	var perm []int32
	issue(0)
	if err := fill(0); err != nil {
		return 0, err
	}
	for r := 0; r < runs; r++ {
		issue(r + 1) // overlap: run r+1's disk time runs while we sort

		// A block is read only after its Wait: View decodes a non-POD
		// codec's bytes at the call.
		mine := runSpans(r)
		chunkLen := int64(len(buf) / sz)
		n.Mem.MustAcquire(chunkLen)
		var chunk dselect.Sorted[T]
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
				sortChunkBudgeted(c, n, blk, nil)
				n.AddCPU(model.SortCPU(int64(len(blk))) + model.ScanCPU(int64(len(blk))))
				blocks[i] = blk
			}
			n.Mem.MustAcquire(chunkLen) // the merged chunk
			chunk.Vals = xmerge.AppendMerge(c, make([]T, 0, chunkLen), blocks)
			n.Mem.Release(chunkLen) // the blocks, merged
			n.AddCPU(model.MergeCPU(chunkLen, len(blocks)))
		} else {
			for i, sp := range mine {
				n.Vol.Wait(hs[i])
				in.Release(sp)
			}
			chunk.Vals = elem.View(c, buf)
			n.AddCPU(model.ScanCPU(chunkLen))
			perm = slices.Grow(perm[:0], int(chunkLen))[:chunkLen]
			sortChunkBudgeted(c, n, chunk.Vals, perm)
			chunk.Perm = perm
			n.Mem.MustAcquire(permElems(chunkLen, sz)) // released by SortAcross
			n.AddCPU(model.SortCPU(chunkLen))
		}
		hs = hs[len(mine):]
		if err := sortRun(r, chunk); err != nil {
			return 0, fmt.Errorf("run %d: %w", r, err)
		}
		if err := fill(r + 1); err != nil { // the buffer is dead: land run r+1
			return 0, err
		}
	}
	n.Vol.Drain()
	// The run buffer and the permutation are dead: collected now, the
	// later phases do not grow the heap on top of them (what SortAcross
	// put back in bufpool goes at the next collection unless reused).
	runtime.GC()
	return runs, nil
}

// permElems is what a permutation of n elements of size bytes is charged:
// ⌈4·n/size⌉ elements, an int32 each.
func permElems(n int64, size int) int64 { return (4*n + int64(size) - 1) / int64(size) }

// SortExact is canonical run formation's distributed sort (§IV-B):
// dselect.Split finds the local positions of the ranks N/P, 2N/P, … in
// one sample round, and SortAcross leaves every PE with exactly its
// share, which SortExact checks by its length and by the start its parts
// carry: store gets its parts as SortAcross's merge does, the run
// position it starts at and the length of the whole run.
func (j *Job[T]) SortExact(n *cluster.Node, chunk dselect.Sorted[T], store func(parts [][]T, segStart, runLen int64) error) error {
	cuts, runLen := dselect.Split(j.c, n, chunk, func(total int64) []int64 { return RankBounds(total, n.P)[1:n.P] })
	bounds := RankBounds(runLen, n.P)
	return j.SortAcross(n, chunk, cuts, func(parts [][]T, got, start int64) error {
		if start != bounds[n.Rank] || start+got != bounds[n.Rank+1] {
			return fmt.Errorf("received run elements [%d, %d), expected the segment [%d, %d)", start, start+got, bounds[n.Rank], bounds[n.Rank+1])
		}
		return store(parts, start, runLen)
	})
}

// SortAcross is the tail of the distributed internal sort that ends
// every run and, in the striped sorter, every merge batch: this PE's
// sorted chunk is cut at cuts (local positions for ranks 1..P-1), part q
// is gathered into the send vector for PE q (EncodeParts), and the P
// sorted parts arriving here — views of the received buffers
// (elem.View) without their trailers, got elements in all — go to
// merge, which merges them where its caller keeps this PE's piece. The
// trailers sum to start, the count of elements of all chunks before the
// piece, so no further round asks where it lies. The parts are valid
// until merge returns; the buffers are recycled right after. Cuts that
// are order-consistent across the PEs make the pieces concatenate, in
// rank order, to the sorted union of all chunks.
//
// Budget: chunk arrives charged at chunk.Len() elements, and its
// permutation, if any, at permElems; both are released once the send
// copies are charged next to them. The received buffers are charged at
// got until they are recycled; merge charges what it merges into. The
// merge's CPU is charged before merge runs, so the writes it issues
// start when the merged piece is complete.
func (j *Job[T]) SortAcross(n *cluster.Node, chunk dselect.Sorted[T], cuts []int64, merge func(parts [][]T, got, start int64) error) error {
	c, sz, model := j.c, j.c.Size(), &j.cfg.Model
	held := int64(chunk.Len())
	send := EncodeParts(c, chunk, cuts)
	n.Mem.MustAcquire(held) // encoded send copies
	n.AddCPU(model.ScanCPU(held))
	n.Mem.Release(held) // decoded chunk dropped
	if chunk.Perm != nil {
		n.Mem.Release(permElems(held, sz)) // and its permutation
	}

	recv := n.AllToAllv(send)
	n.Mem.Release(held) // send copies handed off to receivers
	var got, start int64
	parts := make([][]T, len(recv))
	for q, b := range recv {
		body := len(b) - 8
		got += int64(body / sz)
		start += int64(binary.LittleEndian.Uint64(b[body:]))
		parts[q] = elem.View(c, b[:body])
	}
	n.Mem.MustAcquire(got) // the received buffers
	n.AddCPU(model.MergeCPU(got, n.P) + model.ScanCPU(got))
	err := merge(parts, got, start)
	cluster.RecycleRecv(recv) // the views are dead
	n.Mem.Release(got)
	return err
}
