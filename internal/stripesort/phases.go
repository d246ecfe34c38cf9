package stripesort

import (
	"encoding/binary"
	"fmt"
	"sort"

	"demsort/internal/blockio"
	"demsort/internal/bufpool"
	"demsort/internal/cluster"
	"demsort/internal/elem"
	"demsort/internal/job"
	"demsort/internal/xmerge"
)

// pe is one PE's view of a striped sort: what every phase needs, and
// what the phases hand to each other.
type pe[T any] struct {
	j   *job.Job[T]
	c   elem.Codec[T]
	n   *cluster.Node
	cfg *Config
	// key and exact are elem.KeyFn(c): the normalized key, and whether
	// it decides the order alone.
	key   func(T) uint64
	exact bool

	runs   int
	totalN int64 // the sum of the run lengths
	// stored lists the striped run blocks this PE homes, in (run, block)
	// order — phase 1's product, the merge's input.
	stored []runBlock[T]
	// outBlocks lists the striped output blocks this PE homes — the
	// merge's product, the collect's input.
	outBlocks []stripedBlock
	batches   int
	outN      int64 // elements delivered to this rank's sink
}

// runBlock is block blk of run run, stored here as block id with len
// elements, the smallest of which is first.
type runBlock[T any] struct {
	run   int
	blk   int64
	id    blockio.BlockID
	len   int
	first T
}

// runPE executes the whole striped sort on one PE; sink receives the
// rank's contiguous share of the sorted output (nil = leave the striped
// blocks on the volumes).
func runPE[T any](j *job.Job[T], c elem.Codec[T], n *cluster.Node, cfg *Config, sink func(rank int, b []byte) error) (*pe[T], error) {
	// Load input onto local disks (unmeasured).
	spans, err := j.Load(n)
	if err != nil {
		return nil, fmt.Errorf("stripesort: %w", err)
	}
	s := &pe[T]{j: j, c: c, n: n, cfg: cfg}
	s.key, s.exact = elem.KeyFn(c)
	if err := s.formRuns(spans); err != nil {
		return nil, err
	}
	if err := s.mergeBatches(s.predict()); err != nil {
		return nil, err
	}

	// Collect: stream the output to the per-rank sinks (outside the
	// measured phases, like core.Sort's collect step).
	n.SetPhase(job.PhaseCollect)
	var myN int64
	for _, b := range s.outBlocks {
		myN += int64(b.len)
	}
	if outN := n.AllReduceInt64(myN, "sum"); outN != s.totalN {
		return nil, fmt.Errorf("stripesort: %d elements in the output blocks, %d in the runs", outN, s.totalN)
	}
	s.outN, err = collectOutput(c, n, cfg, j.BElem, s.outBlocks, sink)
	return s, err
}

// formRuns is phase 1, run formation with global striping: the shared
// run formation, each sorted run striped over the machine as it
// completes.
func (s *pe[T]) formRuns(spans []blockio.Span) error {
	n, model := s.n, &s.cfg.Model
	n.SetPhase(PhaseRunForm)
	var err error
	s.runs, err = s.j.FormRuns(n, spans, 0x57121, func(run int, runLen, segStart int64, seg []T) error {
		st := s.newStriper(runLen, func(g int64, data []T) {
			s.stored = append(s.stored, runBlock[T]{run: run, blk: g, id: s.writeBlock(data), len: len(data), first: data[0]})
		})
		st.stripe(segStart, seg)
		n.AddCPU(2 * model.ScanCPU(int64(len(seg))))
		s.totalN += runLen
		return st.done()
	})
	if err != nil {
		return fmt.Errorf("stripesort: %w", err)
	}
	return nil
}

// striper moves pieces of one block-striped sequence of total elements
// — block g, elements [g·B, (g+1)·B), lives on PE g mod P — from the PEs
// that produced them to the PEs that store them: the extra
// communication of Section III. Blocks assemble across calls, so a
// piece may end anywhere; emit receives each block this PE homes once,
// when its last element has arrived.
type striper[T any] struct {
	*pe[T]
	total int64
	emit  func(g int64, data []T)
	asm   map[int64]*asmBlock[T]
}

type asmBlock[T any] struct {
	data   []T
	filled int
}

func (s *pe[T]) newStriper(total int64, emit func(g int64, data []T)) *striper[T] {
	return &striper[T]{pe: s, total: total, emit: emit, asm: map[int64]*asmBlock[T]{}}
}

// stripe is collective: this PE contributes elements [lo, lo+len(elems))
// of the sequence, cut at block boundaries and sent to each block's home
// under a (block, offset, count) header; arriving pieces are decoded
// straight into their block's assembly slot. Blocks under assembly are
// charged to the budget while they wait.
func (s *striper[T]) stripe(lo int64, elems []T) {
	n, sz, bElem := s.n, s.c.Size(), int64(s.j.BElem)
	send := make([][]byte, n.P)
	for pos := lo; len(elems) > 0; {
		g := pos / bElem
		take := min(int64(len(elems)), (g+1)*bElem-pos)
		home := int(g % int64(n.P))
		var hdr [16]byte
		binary.LittleEndian.PutUint64(hdr[:8], uint64(g))
		binary.LittleEndian.PutUint32(hdr[8:12], uint32(pos-g*bElem))
		binary.LittleEndian.PutUint32(hdr[12:16], uint32(take))
		send[home] = append(send[home], hdr[:]...)
		send[home] = elem.AppendEncode(s.c, send[home], elems[:take])
		elems, pos = elems[take:], pos+take
	}
	recv := n.AllToAllv(send)
	for _, buf := range recv {
		for len(buf) > 0 {
			g := int64(binary.LittleEndian.Uint64(buf[:8]))
			off := int(binary.LittleEndian.Uint32(buf[8:12]))
			cnt := int(binary.LittleEndian.Uint32(buf[12:16]))
			a := s.asm[g]
			if a == nil {
				a = &asmBlock[T]{data: make([]T, min(bElem, s.total-g*bElem))}
				n.Mem.MustAcquire(int64(len(a.data)))
				s.asm[g] = a
			}
			elem.DecodeInto(s.c, a.data[off:off+cnt], buf[16:16+cnt*sz])
			buf = buf[16+cnt*sz:]
			if a.filled += cnt; a.filled == len(a.data) {
				s.emit(g, a.data)
				delete(s.asm, g)
				n.Mem.Release(int64(len(a.data)))
			}
		}
	}
	cluster.RecycleRecv(recv)
}

// done checks that the whole sequence has been striped: every block
// that started assembling was completed.
func (s *striper[T]) done() error {
	if len(s.asm) != 0 {
		return fmt.Errorf("%d striped blocks left incomplete", len(s.asm))
	}
	return nil
}

// writeBlock persists one striped block on the local volume.
func (s *pe[T]) writeBlock(data []T) blockio.BlockID {
	id := s.n.Vol.Alloc()
	enc := bufpool.Get(len(data) * s.c.Size())
	elem.EncodeInto(s.c, enc, data)
	s.n.Vol.WriteAsync(id, enc)
	bufpool.Put(enc)
	return id
}

// less orders (element, run, position) triples totally — the barrier
// rule — probing normalized uint64 keys first; the comparator runs only
// on equal inexact keys (never for U64/KV16, and only on shared 8-byte
// prefixes for Rec100).
func (s *pe[T]) less(ak uint64, a T, ar int, ap int64, bk uint64, b T, br int, bp int64) bool {
	if ak != bk {
		return ak < bk
	}
	if !s.exact {
		if s.c.Less(a, b) {
			return true
		}
		if s.c.Less(b, a) {
			return false
		}
	}
	if ar != br {
		return ar < br
	}
	return ap < bp
}

// predict closes phase 1 with the global prediction sequence: the first
// key of every block of every run, allgathered and sorted, so each PE
// can compute the fetch order deterministically. The table stays
// charged until the merge is over.
func (s *pe[T]) predict() []predEntry[T] {
	n, sz := s.n, s.c.Size()
	var buf []byte
	for _, rb := range s.stored {
		var hdr [12]byte
		binary.LittleEndian.PutUint32(hdr[:4], uint32(rb.run))
		binary.LittleEndian.PutUint64(hdr[4:], uint64(rb.blk))
		buf = append(buf, hdr[:]...)
		buf = elem.AppendEncode(s.c, buf, []T{rb.first})
	}
	var pred []predEntry[T]
	for _, pb := range n.AllGather(buf) {
		for len(pb) > 0 {
			v := s.c.Decode(pb[12 : 12+sz])
			pred = append(pred, predEntry[T]{first: v, firstKey: s.key(v),
				run: int(binary.LittleEndian.Uint32(pb[:4])), blk: int64(binary.LittleEndian.Uint64(pb[4:12]))})
			pb = pb[12+sz:]
		}
	}
	bElem := int64(s.j.BElem)
	sort.Slice(pred, func(i, j int) bool {
		a, b := pred[i], pred[j]
		return s.less(a.firstKey, a.first, a.run, a.blk*bElem, b.firstKey, b.first, b.run, b.blk*bElem)
	})
	n.Mem.MustAcquire(int64(len(pred)))
	n.Barrier()
	return pred
}

// piece is a fetched, not yet emitted stretch of one run: elems start
// at run position pos.
type piece[T any] struct {
	pos   int64
	elems []T
}

// mergeBatches is phase 2, prediction-driven batch merging: blocks are
// fetched in prediction order, a batch at a time; what is smaller than
// the first unfetched element is merged across the machine and striped
// to the output, the rest waits for the next batch.
func (s *pe[T]) mergeBatches(pred []predEntry[T]) error {
	n, cfg, bElem := s.n, s.cfg, int64(s.j.BElem)
	n.SetPhase(PhaseMerge)
	home := make(map[[2]int64]runBlock[T], len(s.stored))
	for _, rb := range s.stored {
		home[[2]int64{int64(rb.run), rb.blk}] = rb
	}
	// Blocks each PE fetches per batch. The prediction table is a
	// first-class memory consumer (the paper's footnote 12 notes the
	// same pressure); the quota is sized from what remains.
	quota := int64(4)
	if cfg.MemElems > 0 {
		avail := max(cfg.MemElems-int64(len(pred)), cfg.MemElems/8)
		quota = max(avail/(16*bElem), 1)
	}
	out := s.newStriper(s.totalN, func(g int64, data []T) {
		s.outBlocks = append(s.outBlocks, stripedBlock{idx: g, id: s.writeBlock(data), len: len(data)})
	})
	pending := make([][]piece[T], s.runs)
	var merged []T // one batch's is striped before the next is merged
	var outCur int64
	for cursor := 0; cursor < len(pred); s.batches++ {
		// Deterministic batch boundary: stop when any PE's fetch count
		// reaches its quota.
		perPE := make([]int64, n.P)
		end := cursor
		for ; end < len(pred); end++ {
			h := pred[end].blk % int64(n.P)
			if perPE[h] == quota {
				break
			}
			perPE[h]++
		}
		s.fetch(pred[cursor:end], home, pending)
		// The barrier is the smallest unfetched element, known from the
		// prediction sequence.
		var barrier *predEntry[T]
		if end < len(pred) {
			barrier = &pred[end]
		}
		chunk := s.extract(pending, barrier)

		if emitTotal := n.AllReduceInt64(int64(len(chunk)), "sum"); emitTotal > 0 {
			// Distributed merge of the emitted chunks, then stripe the
			// result to the output — the two communications per element
			// of the merging pass. Unlike run formation's splitters, the
			// batch cuts only need to be order-consistent (the striped
			// layout fixes positions later), so cheap sample-based
			// splitters suffice — exactness here would cost more
			// metadata than the batch carries data.
			merged = s.j.SortAcross(n, chunk, sampleCuts(s.c, n, chunk), merged[:0])
			// The batch's output positions follow from the actual piece
			// sizes (approximate splits make them uneven).
			lo := outCur
			for _, l := range allGatherInt64(n, int64(len(merged)))[:n.Rank] {
				lo += l
			}
			out.stripe(lo, merged)
			n.Mem.Release(2 * int64(len(merged)))
			outCur += emitTotal
		}
		cursor = end
	}
	n.Mem.Release(int64(len(pred))) // prediction table dead after the merge
	n.Vol.Drain()
	n.Barrier()
	if err := out.done(); err != nil {
		return fmt.Errorf("stripesort: output: %w", err)
	}
	return nil
}

// fetch reads this PE's resident blocks of one batch (asynchronously)
// and queues each behind its run's pending pieces, charged to the
// budget until emitted.
func (s *pe[T]) fetch(batch []predEntry[T], home map[[2]int64]runBlock[T], pending [][]piece[T]) {
	n, sz := s.n, s.c.Size()
	type fetched struct {
		rb     runBlock[T]
		raw    []byte
		handle blockio.Handle
	}
	var fs []fetched
	for _, e := range batch {
		if int(e.blk%int64(n.P)) != n.Rank {
			continue
		}
		rb := home[[2]int64{int64(e.run), e.blk}]
		raw := bufpool.Get(rb.len * sz)
		fs = append(fs, fetched{rb: rb, raw: raw, handle: n.Vol.ReadAsync(rb.id, raw)})
	}
	for _, f := range fs {
		n.Vol.Wait(f.handle)
		vals := elem.DecodeSlice(s.c, f.raw, f.rb.len)
		bufpool.Put(f.raw)
		n.Mem.MustAcquire(int64(len(vals)))
		pending[f.rb.run] = append(pending[f.rb.run], piece[T]{pos: f.rb.blk * int64(s.j.BElem), elems: vals})
		n.Vol.Free(f.rb.id)
	}
	n.AddCPU(s.cfg.Model.ScanCPU(int64(len(fs) * s.j.BElem)))
}

// extract removes from pending everything strictly before the barrier
// (nil: everything) and returns it merged. Per run the pending pieces
// form an ascending chain, so the emittable part is a prefix of their
// concatenation. The budget charge of the emitted prefixes passes to
// the merged chunk.
func (s *pe[T]) extract(pending [][]piece[T], barrier *predEntry[T]) []T {
	var seqs [][]T
	var total, bPos int64
	if barrier != nil {
		bPos = barrier.blk * int64(s.j.BElem)
	}
	for r := range pending {
		var seq []T
		rest := pending[r][:0]
		for _, pc := range pending[r] {
			cnt := len(pc.elems)
			if barrier != nil {
				cnt = sort.Search(cnt, func(i int) bool {
					v := pc.elems[i]
					return !s.less(s.key(v), v, r, pc.pos+int64(i), barrier.firstKey, barrier.first, barrier.run, bPos)
				})
			}
			seq = append(seq, pc.elems[:cnt]...)
			if cnt < len(pc.elems) {
				rest = append(rest, piece[T]{pos: pc.pos + int64(cnt), elems: pc.elems[cnt:]})
			}
		}
		pending[r] = rest
		if len(seq) > 0 {
			seqs = append(seqs, seq)
			total += int64(len(seq))
		}
	}
	s.n.AddCPU(s.cfg.Model.MergeCPU(total, len(seqs)+1))
	return xmerge.Merge(s.c, seqs)
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
		w1 := min((int64(wi)+1)*w, total)
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
