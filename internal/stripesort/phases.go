package stripesort

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sort"

	"demsort/internal/blockio"
	"demsort/internal/bufpool"
	"demsort/internal/cluster"
	"demsort/internal/dselect"
	"demsort/internal/elem"
	"demsort/internal/job"
	"demsort/internal/xmerge"
)

// runPE executes the whole striped sort on one PE; sink receives the
// rank's contiguous share of the sorted output (nil = leave the striped
// blocks on the volumes).
func runPE[T any](j *job.Job[T], c elem.Codec[T], n *cluster.Node, cfg *Config, sink func(rank int, b []byte) error) (*peState[T], error) {
	sz := c.Size()
	bElem, bpr := j.BElem, j.BlocksPerRun
	key, exact := elem.KeyFn(c)

	// ----- Load input onto local disks (unmeasured) -----
	inBlocks, err := j.Load(n)
	if err != nil {
		return nil, fmt.Errorf("stripesort: %w", err)
	}

	// ----- Phase 1: run formation with global striping -----
	n.SetPhase(PhaseRunForm)
	if cfg.Randomize {
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(n.Rank)+0x57121))
		rng.Shuffle(len(inBlocks), func(i, j int) { inBlocks[i], inBlocks[j] = inBlocks[j], inBlocks[i] })
	}
	myRuns := (len(inBlocks) + bpr - 1) / bpr
	runs := int(n.AllReduceInt64(int64(myRuns), "max"))
	if runs == 0 {
		runs = 1
	}

	// Per run, the striped blocks this PE stores and their first keys.
	type runBlock struct {
		blk   int64
		id    blockio.BlockID
		len   int
		first T
	}
	stored := make([][]runBlock, runs)
	runLens := make([]int64, runs)

	raw := bufpool.Get(cfg.BlockBytes)
	for r := 0; r < runs; r++ {
		lo := r * bpr
		var chunk []T
		if lo < len(inBlocks) {
			hi := lo + bpr
			if hi > len(inBlocks) {
				hi = len(inBlocks)
			}
			for _, b := range inBlocks[lo:hi] {
				n.Vol.ReadWait(b.ID, raw[:b.Bytes])
				chunk = elem.AppendDecode(c, chunk, raw, b.Bytes/sz)
				n.Vol.Free(b.ID)
			}
		}
		n.Mem.MustAcquire(int64(len(chunk)))
		job.SortChunkBudgeted(c, n, &cfg.Common, chunk)
		n.AddCPU(cfg.Model.SortCPU(int64(len(chunk))) + cfg.Model.ScanCPU(int64(len(chunk))))

		runLen := n.AllReduceInt64(int64(len(chunk)), "sum")
		runLens[r] = runLen
		bounds := job.RankBounds(runLen, n.P)
		cuts := dselect.Cuts(c, n, chunk, bounds[1:n.P])
		send := job.EncodeParts(c, chunk, cuts)
		n.AddCPU(cfg.Model.ScanCPU(int64(len(chunk))))
		chunkLen := int64(len(chunk))
		chunk = nil
		n.Mem.Release(chunkLen) // decoded chunk dropped (send buffers encoded)
		recv := n.AllToAllv(send)
		segLen := bounds[n.Rank+1] - bounds[n.Rank]
		// Decoded pieces + merged segment + striping assembly buffers.
		n.Mem.MustAcquire(3 * segLen)
		pieces := make([][]T, n.P)
		for q := 0; q < n.P; q++ {
			pieces[q] = elem.DecodeSlice(c, recv[q], len(recv[q])/sz)
		}
		cluster.RecycleRecv(recv)
		merged := xmerge.Merge(c, pieces)
		n.AddCPU(cfg.Model.MergeCPU(segLen, n.P) + cfg.Model.ScanCPU(segLen))
		if int64(len(merged)) != segLen {
			return nil, fmt.Errorf("stripesort: run %d: segment %d != %d", r, len(merged), segLen)
		}

		// Stripe the sorted run globally: block g of the run goes to
		// PE g mod P — the extra communication of Section III.
		segStart := bounds[n.Rank]
		stripeSend := make([][]byte, n.P)
		for pos := int64(0); pos < segLen; {
			g := (segStart + pos) / int64(bElem)
			bLo := g * int64(bElem)
			bHi := bLo + int64(bElem)
			if bHi > runLen {
				bHi = runLen
			}
			take := min64(bHi-segStart-pos, segLen-pos)
			home := int(g % int64(n.P))
			var hdr [16]byte
			binary.LittleEndian.PutUint64(hdr[:8], uint64(g))
			binary.LittleEndian.PutUint32(hdr[8:12], uint32(segStart+pos-bLo))
			binary.LittleEndian.PutUint32(hdr[12:16], uint32(take))
			stripeSend[home] = append(stripeSend[home], hdr[:]...)
			stripeSend[home] = elem.AppendEncode(c, stripeSend[home], merged[pos:pos+take])
			pos += take
		}
		n.AddCPU(cfg.Model.ScanCPU(segLen))
		stripeRecv := n.AllToAllv(stripeSend)

		// Assemble and write the striped blocks this PE homes.
		type asm struct {
			data   []T
			filled int
			total  int
		}
		blocks := map[int64]*asm{}
		for p := 0; p < n.P; p++ {
			buf := stripeRecv[p]
			for len(buf) > 0 {
				g := int64(binary.LittleEndian.Uint64(buf[:8]))
				off := int(binary.LittleEndian.Uint32(buf[8:12]))
				cnt := int(binary.LittleEndian.Uint32(buf[12:16]))
				a := blocks[g]
				if a == nil {
					bLo := g * int64(bElem)
					bHi := bLo + int64(bElem)
					if bHi > runLen {
						bHi = runLen
					}
					a = &asm{data: make([]T, bHi-bLo), total: int(bHi - bLo)}
					blocks[g] = a
				}
				// Decode straight into the assembly slot — no staging copy.
				elem.DecodeInto(c, a.data[off:off+cnt], buf[16:16+cnt*sz])
				buf = buf[16+cnt*sz:]
				a.filled += cnt
			}
		}
		cluster.RecycleRecv(stripeRecv)
		var myBlocks []int64
		for g := range blocks {
			myBlocks = append(myBlocks, g)
		}
		sort.Slice(myBlocks, func(i, j int) bool { return myBlocks[i] < myBlocks[j] })
		for _, g := range myBlocks {
			a := blocks[g]
			if a.filled != a.total {
				return nil, fmt.Errorf("stripesort: run %d block %d assembled %d/%d", r, g, a.filled, a.total)
			}
			id := n.Vol.Alloc()
			eb := raw[:len(a.data)*sz]
			elem.EncodeInto(c, eb, a.data)
			n.Vol.WriteAsync(id, eb)
			stored[r] = append(stored[r], runBlock{blk: g, id: id, len: a.total, first: a.data[0]})
		}
		n.AddCPU(cfg.Model.ScanCPU(segLen))
		n.Mem.Release(3 * segLen)
	}
	bufpool.Put(raw)
	n.Vol.Drain()

	// Build the global prediction sequence: the first key of every
	// block of every run, allgathered so each PE can compute the fetch
	// order deterministically.
	var predBuf []byte
	for r := 0; r < runs; r++ {
		for _, rb := range stored[r] {
			var hdr [12]byte
			binary.LittleEndian.PutUint32(hdr[:4], uint32(r))
			binary.LittleEndian.PutUint64(hdr[4:], uint64(rb.blk))
			predBuf = append(predBuf, hdr[:]...)
			predBuf = elem.AppendEncode(c, predBuf, []T{rb.first})
		}
	}
	predAll := n.AllGather(predBuf)
	var pred []predEntry[T]
	for _, pb := range predAll {
		for len(pb) > 0 {
			r := int(binary.LittleEndian.Uint32(pb[:4]))
			blk := int64(binary.LittleEndian.Uint64(pb[4:12]))
			v := c.Decode(pb[12 : 12+sz])
			pb = pb[12+sz:]
			pred = append(pred, predEntry[T]{first: v, firstKey: key(v), run: r, blk: blk})
		}
	}
	sort.Slice(pred, func(i, j int) bool {
		a, b := pred[i], pred[j]
		if a.firstKey != b.firstKey {
			return a.firstKey < b.firstKey
		}
		if !exact {
			if c.Less(a.first, b.first) {
				return true
			}
			if c.Less(b.first, a.first) {
				return false
			}
		}
		if a.run != b.run {
			return a.run < b.run
		}
		return a.blk < b.blk
	})
	n.Mem.MustAcquire(int64(len(pred)))
	n.Barrier()

	// ----- Phase 2: prediction-driven batch merging -----
	n.SetPhase(PhaseMerge)
	st := &peState[T]{runs: runs}
	// Index of my stored blocks for O(1) lookup.
	myIdx := map[[2]int64]runBlock{}
	for r := 0; r < runs; r++ {
		for _, rb := range stored[r] {
			myIdx[[2]int64{int64(r), rb.blk}] = rb
		}
	}

	quota := 4
	if cfg.MemElems > 0 {
		// The prediction table is a first-class memory consumer (the
		// paper's footnote 12 notes the same pressure); size the batch
		// fetch quota from what remains.
		avail := cfg.MemElems - int64(len(pred))
		if avail < cfg.MemElems/8 {
			avail = cfg.MemElems / 8
		}
		if q := int(avail / (16 * int64(bElem))); q < quota {
			quota = q
		} else {
			quota = q
		}
		if quota < 1 {
			quota = 1
		}
	}
	// lessTot orders (element, run, pos) totally — the barrier rule —
	// probing normalized uint64 keys first; the comparator runs only
	// on equal inexact keys (never for U64/KV16, and only on shared
	// 8-byte prefixes for Rec100).
	lessTot := func(ak uint64, a T, ar int, ap int64, bk uint64, b T, br int, bp int64) bool {
		if ak != bk {
			return ak < bk
		}
		if !exact {
			if c.Less(a, b) {
				return true
			}
			if c.Less(b, a) {
				return false
			}
		}
		if ar != br {
			return ar < br
		}
		return ap < bp
	}

	type piece struct {
		pos   int64
		elems []T
	}
	pending := make([][]piece, runs)
	outAsm := map[int64]*outAsm[T]{}
	var outCur int64
	cursor := 0

	for cursor < len(pred) {
		// Deterministic batch boundary: stop when any PE's fetch
		// count reaches its quota.
		perPE := make([]int, n.P)
		end := cursor
		for end < len(pred) {
			home := int(pred[end].blk % int64(n.P))
			if perPE[home] == quota {
				break
			}
			perPE[home]++
			end++
		}

		// Fetch my resident blocks of this batch (asynchronously).
		type fetched struct {
			e      predEntry[T]
			raw    []byte
			rb     runBlock
			handle blockio.Handle
		}
		var fs []fetched
		for i := cursor; i < end; i++ {
			e := pred[i]
			if int(e.blk%int64(n.P)) != n.Rank {
				continue
			}
			rb := myIdx[[2]int64{int64(e.run), e.blk}]
			f := fetched{e: e, rb: rb, raw: bufpool.Get(rb.len * sz)}
			f.handle = n.Vol.ReadAsync(rb.id, f.raw)
			fs = append(fs, f)
		}
		for _, f := range fs {
			n.Vol.Wait(f.handle)
			vals := elem.DecodeSlice(c, f.raw, f.rb.len)
			bufpool.Put(f.raw)
			n.Mem.MustAcquire(int64(len(vals)))
			pending[f.e.run] = append(pending[f.e.run], piece{pos: f.e.blk * int64(bElem), elems: vals})
			n.Vol.Free(f.rb.id)
		}
		n.AddCPU(cfg.Model.ScanCPU(int64(len(fs) * bElem)))

		// Barrier: the smallest unfetched element (value and cached
		// normalized key, from the prediction sequence).
		haveBarrier := end < len(pred)
		var bVal T
		var bKey uint64
		var bRun int
		var bPos int64
		if haveBarrier {
			bVal, bKey = pred[end].first, pred[end].firstKey
			bRun, bPos = pred[end].run, pred[end].blk*int64(bElem)
		}

		// Extract everything strictly before the barrier: per run the
		// pending pieces form an ascending chain, so the emittable part
		// is a prefix of their concatenation.
		emitSeqs := make([][]T, 0, runs)
		var emitMine int64
		for r := 0; r < runs; r++ {
			var seq []T
			rest := pending[r][:0]
			for _, pc := range pending[r] {
				cnt := len(pc.elems)
				if haveBarrier {
					cnt = sort.Search(len(pc.elems), func(j int) bool {
						return !lessTot(key(pc.elems[j]), pc.elems[j], r, pc.pos+int64(j), bKey, bVal, bRun, bPos)
					})
				}
				seq = append(seq, pc.elems[:cnt]...)
				if cnt < len(pc.elems) {
					rest = append(rest, piece{pos: pc.pos + int64(cnt), elems: pc.elems[cnt:]})
				}
			}
			pending[r] = rest
			if len(seq) > 0 {
				emitSeqs = append(emitSeqs, seq)
				emitMine += int64(len(seq))
			}
		}
		chunk := xmerge.Merge(c, emitSeqs)
		n.AddCPU(cfg.Model.MergeCPU(emitMine, len(emitSeqs)+1))
		n.Mem.MustAcquire(2 * emitMine) // emit copies + merged chunk; released below

		emitTotal := n.AllReduceInt64(emitMine, "sum")
		if emitTotal > 0 {
			// Distributed merge of the emitted chunks, then stripe the
			// result to the output — the two communications per element
			// of the merging pass. Unlike phase 2's splitters, the
			// batch cuts only need to be order-consistent (the striped
			// layout fixes positions later), so cheap sample-based
			// splitters suffice — exactness here would cost more
			// metadata than the batch carries data.
			send := job.EncodeParts(c, chunk, sampleCuts(c, n, chunk))
			recv := n.AllToAllv(send)
			var pieceLen int64
			for q := 0; q < n.P; q++ {
				pieceLen += int64(len(recv[q]) / sz)
			}
			n.Mem.MustAcquire(2 * pieceLen) // decoded pieces + merged result
			ps := make([][]T, n.P)
			for q := 0; q < n.P; q++ {
				ps[q] = elem.DecodeSlice(c, recv[q], len(recv[q])/sz)
			}
			cluster.RecycleRecv(recv)
			merged := xmerge.Merge(c, ps)
			n.AddCPU(cfg.Model.MergeCPU(pieceLen, n.P) + 2*cfg.Model.ScanCPU(pieceLen))

			// The batch's output positions follow from the actual piece
			// sizes (approximate splits make them uneven).
			lens := allGatherInt64(n, pieceLen)
			var before int64
			for q := 0; q < n.Rank; q++ {
				before += lens[q]
			}
			myLo := outCur + before
			outSend := make([][]byte, n.P)
			for pos := int64(0); pos < pieceLen; {
				o := (myLo + pos) / int64(bElem)
				bLo := o * int64(bElem)
				take := min64(bLo+int64(bElem)-(myLo+pos), pieceLen-pos)
				home := int(o % int64(n.P))
				var hdr [16]byte
				binary.LittleEndian.PutUint64(hdr[:8], uint64(o))
				binary.LittleEndian.PutUint32(hdr[8:12], uint32(myLo+pos-bLo))
				binary.LittleEndian.PutUint32(hdr[12:16], uint32(take))
				outSend[home] = append(outSend[home], hdr[:]...)
				outSend[home] = elem.AppendEncode(c, outSend[home], merged[pos:pos+take])
				pos += take
			}
			outRecv := n.AllToAllv(outSend)
			for p := 0; p < n.P; p++ {
				buf := outRecv[p]
				for len(buf) > 0 {
					o := int64(binary.LittleEndian.Uint64(buf[:8]))
					off := int(binary.LittleEndian.Uint32(buf[8:12]))
					cnt := int(binary.LittleEndian.Uint32(buf[12:16]))
					a := outAsm[o]
					if a == nil {
						a = newOutAsm[T](bElem)
						n.Mem.MustAcquire(int64(bElem))
						outAsm[o] = a
					}
					elem.DecodeInto(c, a.data[off:off+cnt], buf[16:16+cnt*sz])
					buf = buf[16+cnt*sz:]
					a.filled += cnt
					if a.filled == bElem {
						writeOut(c, n, st, o, a.data)
						delete(outAsm, o)
						n.Mem.Release(int64(bElem))
					}
				}
			}
			cluster.RecycleRecv(outRecv)
			outCur += emitTotal
			n.Mem.Release(2 * pieceLen)
		}
		n.Mem.Release(3 * emitMine) // pending prefixes emitted + emit copies + merged chunk
		cursor = end
		st.batches++
	}
	// Flush the final partial output block (at most one, on its home).
	for o, a := range outAsm {
		writeOut(c, n, st, o, a.data[:a.filled])
		n.Mem.Release(int64(bElem))
	}
	n.Mem.Release(int64(len(pred))) // prediction table dead after the merge
	n.Vol.Drain()
	n.Barrier()

	// ----- Collect: stream the output to the per-rank sinks -----
	// (outside the measured phases, like core.Sort's collect step).
	n.SetPhase(job.PhaseCollect)
	var myN int64
	for _, b := range st.outBlocks {
		myN += int64(b.len)
	}
	st.totalN = n.AllReduceInt64(myN, "sum")
	outN, err := collectOutput(c, n, cfg, bElem, st.outBlocks, sink)
	if err != nil {
		return nil, err
	}
	st.outN = outN
	return st, nil
}

// collectOutput re-routes the globally striped output blocks to their
// canonical owners and feeds them to the sink in output order: rank i
// receives blocks [G·i/P, G·(i+1)/P), so the per-rank sink streams
// concatenate — in rank order — to the sorted sequence, exactly like
// core.Sort's canonical partition. The transfer runs in windows of W
// consecutive blocks per exchange, bounding both the sender's
// staging and the receiver's reorder buffer to O(W·B) — the streamed
// replacement for the old in-process [][]outBlock reassembly. Homes
// free their blocks as they are shipped, so the striped copy is
// consumed in place.
func collectOutput[T any](c elem.Codec[T], n *cluster.Node, cfg *Config, bElem int, blocks []stripedBlock, sink func(rank int, b []byte) error) (int64, error) {
	if sink == nil {
		return 0, nil
	}
	sz := c.Size()
	maxIdx := int64(-1)
	for _, b := range blocks {
		if b.idx > maxIdx {
			maxIdx = b.idx
		}
	}
	total := n.AllReduceInt64(maxIdx+1, "max") // G: global output blocks
	if total == 0 {
		return 0, nil
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].idx < blocks[j].idx })
	bounds := job.RankBounds(total, n.P)
	owner := func(g int64) int {
		return sort.Search(n.P, func(i int) bool { return bounds[i+1] > g })
	}
	// Window size: every round ships the blocks of W consecutive output
	// indices, so a receiving owner reorders at most W blocks (≤ m/4
	// elements) and a home stages ≈ W/P.
	w := int64(4 * n.P)
	if cfg.MemElems > 0 {
		if lim := cfg.MemElems / (4 * int64(bElem)); lim < w {
			w = lim
		}
	}
	if w < 1 {
		w = 1
	}
	raw := bufpool.Get(cfg.BlockBytes)
	defer bufpool.Put(raw)
	type entry struct {
		idx  int64
		data []byte
	}
	ptr := 0
	var sunk int64
	// The windows run as one pipeline (Node.A2ARounds): with a stream
	// window of 2, window wi+1's blocks are read off the store and staged
	// while window wi is still on the wire, so the part-file sink writes
	// overlap the next exchange (§IV-E). buildSend stages the blocks of
	// window wi and reports their elements as the exchange's budget
	// charge, which A2ARounds holds until this PE's sender has provably
	// written them; drain sinks one window's receives. Any stream window
	// issues the same calls in the same per-PE order, so the sink streams
	// are byte-identical.
	buildSend := func(wi int) ([][]byte, int64) {
		w1 := min64((int64(wi)+1)*w, total)
		send := make([][]byte, n.P)
		var sendElems int64
		for ptr < len(blocks) && blocks[ptr].idx < w1 {
			b := blocks[ptr]
			ptr++
			n.Vol.ReadWait(b.id, raw[:b.len*sz])
			dst := owner(b.idx)
			var hdr [12]byte
			binary.LittleEndian.PutUint64(hdr[:8], uint64(b.idx))
			binary.LittleEndian.PutUint32(hdr[8:12], uint32(b.len))
			send[dst] = append(send[dst], hdr[:]...)
			send[dst] = append(send[dst], raw[:b.len*sz]...)
			sendElems += int64(b.len)
			n.Vol.Free(b.id)
		}
		return send, sendElems
	}
	drain := func(_ int, recv [][]byte) error {
		var entries []entry
		var recvElems int64
		for p := 0; p < n.P; p++ {
			buf := recv[p]
			for len(buf) > 0 {
				idx := int64(binary.LittleEndian.Uint64(buf[:8]))
				cnt := int(binary.LittleEndian.Uint32(buf[8:12]))
				entries = append(entries, entry{idx: idx, data: buf[12 : 12+cnt*sz]})
				recvElems += int64(cnt)
				buf = buf[12+cnt*sz:]
			}
		}
		n.Mem.MustAcquire(recvElems)
		sort.Slice(entries, func(i, j int) bool { return entries[i].idx < entries[j].idx })
		for _, e := range entries {
			if err := sink(n.Rank, e.data); err != nil {
				return fmt.Errorf("stripesort: output sink, rank %d: %w", n.Rank, err)
			}
			sunk += int64(len(e.data)) / int64(sz)
		}
		cluster.RecycleRecv(recv)
		n.Mem.Release(recvElems)
		return nil
	}
	err := n.A2ARounds(int((total+w-1)/w), buildSend, drain)
	return sunk, err
}

type outAsm[T any] struct {
	data   []T
	filled int
}

func newOutAsm[T any](bElem int) *outAsm[T] {
	return &outAsm[T]{data: make([]T, bElem)}
}

// writeOut persists one striped output block and records its global
// index (the collect step routes on it).
func writeOut[T any](c elem.Codec[T], n *cluster.Node, st *peState[T], o int64, data []T) {
	id := n.Vol.Alloc()
	enc := bufpool.Get(len(data) * c.Size())
	elem.EncodeInto(c, enc, data)
	n.Vol.WriteAsync(id, enc)
	bufpool.Put(enc)
	st.outBlocks = append(st.outBlocks, stripedBlock{idx: o, id: id, len: len(data)})
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// sampleCuts computes order-consistent (but only approximately
// balanced) cut positions of this PE's sorted chunk for a P-way
// distribution: every PE contributes a handful of weighted sample
// elements, all PEs derive the same P-1 splitters from the pooled
// sample, and each cuts its chunk at those splitters under the
// (value, PE, position) total order — so the distributed pieces are
// globally ordered even with duplicate keys.
func sampleCuts[T any](c elem.Codec[T], n *cluster.Node, chunk []T) []int64 {
	sz := c.Size()
	const sPerPE = 8
	// Contribute up to sPerPE evenly spaced elements, each weighted by
	// the share of the chunk it represents.
	var buf []byte
	ln := int64(len(chunk))
	for i := 0; i < sPerPE && ln > 0; i++ {
		idx := ln * int64(i) / sPerPE
		var rec [16]byte
		binary.LittleEndian.PutUint64(rec[:8], uint64(idx))
		binary.LittleEndian.PutUint64(rec[8:], uint64(ln/sPerPE+1))
		buf = append(buf, rec[:]...)
		buf = elem.AppendEncode(c, buf, []T{chunk[idx]})
	}
	all := n.AllGather(buf)
	type cand struct {
		v      T
		pe     int
		idx    int64
		weight int64
	}
	var pool []cand
	var wTotal int64
	for pe := 0; pe < n.P; pe++ {
		b := all[pe]
		for len(b) > 0 {
			cd := cand{
				pe:     pe,
				idx:    int64(binary.LittleEndian.Uint64(b[:8])),
				weight: int64(binary.LittleEndian.Uint64(b[8:16])),
				v:      c.Decode(b[16 : 16+sz]),
			}
			b = b[16+sz:]
			pool = append(pool, cd)
			wTotal += cd.weight
		}
	}
	sort.Slice(pool, func(a, b int) bool {
		pa, pb := pool[a], pool[b]
		if c.Less(pa.v, pb.v) {
			return true
		}
		if c.Less(pb.v, pa.v) {
			return false
		}
		if pa.pe != pb.pe {
			return pa.pe < pb.pe
		}
		return pa.idx < pb.idx
	})
	cuts := make([]int64, n.P-1)
	for i := 1; i < n.P; i++ {
		target := wTotal * int64(i) / int64(n.P)
		var acc int64
		sp := pool[len(pool)-1]
		for _, cd := range pool {
			acc += cd.weight
			if acc >= target {
				sp = cd
				break
			}
		}
		// Count my chunk elements ordered before the splitter
		// (value, PE, position) — identical tie handling on every PE
		// keeps the distributed pieces disjoint and ordered.
		cuts[i-1] = int64(sort.Search(len(chunk), func(j int) bool {
			v := chunk[j]
			if c.Less(v, sp.v) {
				return false
			}
			if c.Less(sp.v, v) {
				return true
			}
			if n.Rank != sp.pe {
				return n.Rank > sp.pe
			}
			return int64(j) >= sp.idx
		}))
	}
	// Cuts must be monotone (identical splitters in sorted order are).
	for i := 1; i < len(cuts); i++ {
		if cuts[i] < cuts[i-1] {
			cuts[i] = cuts[i-1]
		}
	}
	return cuts
}

// allGatherInt64 shares one int64 per PE.
func allGatherInt64(n *cluster.Node, v int64) []int64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	all := n.AllGather(b[:])
	out := make([]int64, len(all))
	for q := range all {
		out[q] = int64(binary.LittleEndian.Uint64(all[q]))
	}
	return out
}
