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
	"demsort/internal/mselect"
	"demsort/internal/xmerge"
)

// pe is one PE's view of a striped sort: what every phase needs, and
// what the phases hand to each other.
type pe[T any] struct {
	j   *job.Job[T]
	c   elem.Codec[T]
	n   *cluster.Node
	cfg *Config
	// ord is the total order on (element, run, position) — the barrier
	// rule — that predict and extract share.
	ord mselect.Order[T]

	runs   int
	totalN int64 // the sum of the run lengths
	// stored lists the striped run blocks this PE homes, in (run, block)
	// order — phase 1's product, the merge's input.
	stored []runBlock[T]
	// outBlocks lists the striped output blocks this PE homes — the
	// merge's product, the collect's input.
	outBlocks []stripedBlock
	batches   int
	// quota is the merge's fetch quota (mergeQuota), maxFetch the most
	// blocks this PE did fetch in one batch.
	quota, maxFetch int64
	outN            int64 // elements delivered to this rank's sink
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
	s := &pe[T]{j: j, c: c, n: n, cfg: cfg, ord: mselect.OrderOf(c)}
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
// run formation, each run sorted across the machine under sample
// splitters — its stripe fixes the positions, so the cuts need not be
// exact — and striped over the machine as it completes.
func (s *pe[T]) formRuns(spans []blockio.Span) error {
	n, model := s.n, &s.cfg.Model
	n.SetPhase(PhaseRunForm)
	var err error
	s.runs, err = s.j.FormRuns(n, spans, 0x57121, s.sortSampled, func(run int, runLen, segStart int64, seg []T) error {
		st := s.newStriper(run, runLen, func(g int64, data []T) {
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

// output is the run number of the output sequence, for home and the
// striper.
const output = -1

// home is the PE that stores block blk of run run. The output is striped
// plainly, block g on PE g mod P. A run's stripe is rotated under
// Randomize: block g of run r lives on PE (g + r) mod P. Randomised run
// formation makes all runs alike, so the prediction sequence lists block
// g of every run back to back; were every run striped from PE 0, one PE
// would home each such stretch — and every run's leftover block — while
// the others wait. Rotating the stripes spreads both (randomized
// cycling). Without Randomize nothing promises that runs are alike, and
// the stripes stay unrotated.
func (s *pe[T]) home(run int, blk int64) int {
	if run != output && s.cfg.Randomize {
		blk += int64(run)
	}
	return int(blk % int64(s.n.P))
}

// striper moves pieces of one block-striped sequence of total elements
// — run run or the output; block g, elements [g·B, (g+1)·B), lives on
// PE home(run, g) — from the PEs that produced them to the PEs that
// store them: the extra communication of Section III. Blocks assemble
// across calls, so a piece may end anywhere; emit receives each block
// this PE homes once, when its last element has arrived.
type striper[T any] struct {
	*pe[T]
	run   int
	total int64
	emit  func(g int64, data []T)
	asm   map[int64]*asmBlock[T]
}

type asmBlock[T any] struct {
	data   []T
	filled int
}

func (s *pe[T]) newStriper(run int, total int64, emit func(g int64, data []T)) *striper[T] {
	return &striper[T]{pe: s, run: run, total: total, emit: emit, asm: map[int64]*asmBlock[T]{}}
}

// stripeHdr is the (block, offset, count) header of a striped piece.
const stripeHdr = 16

// stripe is collective: this PE contributes elements [lo, lo+len(elems))
// of the sequence, cut at block boundaries and sent to each block's home
// under a (block, offset, count) header; arriving pieces are decoded
// straight into their block's assembly slot. Blocks under assembly are
// charged to the budget while they wait.
func (s *striper[T]) stripe(lo int64, elems []T) {
	n, sz, bElem := s.n, s.c.Size(), int64(s.j.BElem)
	// pieces walks the block-aligned pieces of [lo, lo+len(elems)).
	pieces := func(fn func(home int, g, off int64, piece []T)) {
		for pos, rest := lo, elems; len(rest) > 0; {
			g := pos / bElem
			take := min(int64(len(rest)), (g+1)*bElem-pos)
			fn(s.home(s.run, g), g, pos-g*bElem, rest[:take])
			rest, pos = rest[take:], pos+take
		}
	}
	// The piece sizes are known before anything is encoded, so each send
	// vector comes out of the arena once, at its final size.
	size := make([]int, n.P)
	pieces(func(home int, _, _ int64, piece []T) { size[home] += stripeHdr + len(piece)*sz })
	send, at := make([][]byte, n.P), make([]int, n.P)
	for q := range send {
		send[q] = bufpool.Get(size[q])
	}
	pieces(func(home int, g, off int64, piece []T) {
		buf := send[home][at[home]:]
		binary.LittleEndian.PutUint64(buf[:8], uint64(g))
		binary.LittleEndian.PutUint32(buf[8:12], uint32(off))
		binary.LittleEndian.PutUint32(buf[12:16], uint32(len(piece)))
		elem.EncodeInto(s.c, buf[stripeHdr:], piece)
		at[home] += stripeHdr + len(piece)*sz
	})
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
			elem.DecodeInto(s.c, a.data[off:off+cnt], buf[stripeHdr:stripeHdr+cnt*sz])
			buf = buf[stripeHdr+cnt*sz:]
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
			pred = append(pred, predEntry[T]{first: v, firstKey: s.ord.Key(v),
				run: int(binary.LittleEndian.Uint32(pb[:4])), blk: int64(binary.LittleEndian.Uint64(pb[4:12]))})
			pb = pb[12+sz:]
		}
	}
	bElem := int64(s.j.BElem)
	sort.Slice(pred, func(i, j int) bool {
		a, b := pred[i], pred[j]
		return s.ord.LessK(a.firstKey, a.first, a.run, a.blk*bElem, b.firstKey, b.first, b.run, b.blk*bElem)
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

// mergeQuota is the number of blocks a PE fetches per merge batch: the
// largest q whose batch fits a budget of m elements, 0 when not even
// one block does (4 without a budget). What a batch holds on one PE,
// with table prediction entries and runs runs of bElem-element blocks:
//
//   - the prediction table, for the whole merge;
//   - pending = (left + q) blocks: the q it fetches on top of the
//     leftovers of earlier batches. A run leaves at most its last
//     fetched block behind. Under rotated stripes (see home) a PE homes
//     the runs of one residue class, and runs that are alike are within
//     a block of each other, so two classes' worth: left = 2·⌈runs/P⌉.
//     Unrotated, the leftovers of all runs can share a PE: left = runs;
//   - then either all of pending is emitted and SortAcross holds the
//     send copies next to it (2·pending), or — at worst — none of it is
//     and the PE still receives a full share of what the machine emits,
//     at most everything pending anywhere, (runs + P·q) blocks:
//     SortAcross holds 3 × that share (recvBound), and afterwards the
//     merged share twice next to the output blocks under assembly (one
//     even share and a partial block at either end).
func mergeQuota(m, table, bElem, runs int64, p int, rotated bool) int64 {
	if m <= 0 {
		return 4
	}
	left := runs
	if rotated {
		left = min(runs, 2*((runs+int64(p)-1)/int64(p)))
	}
	need := func(q int64) int64 {
		pending := (left + q) * bElem
		return table + pending + max(pending, 3*recvBound((runs+int64(p)*q)*bElem, p)+2*bElem)
	}
	// need grows with q: the largest q that fits is one below the first
	// that does not.
	return int64(sort.Search(int(m/bElem)+1, func(q int) bool { return need(int64(q)+1) > m }))
}

// mergeBatches is phase 2, prediction-driven batch merging: blocks are
// fetched in prediction order, a batch at a time; what is smaller than
// the first unfetched element is merged across the machine and striped
// to the output, the rest waits for the next batch.
func (s *pe[T]) mergeBatches(pred []predEntry[T]) error {
	n := s.n
	n.SetPhase(PhaseMerge)
	stored := make(map[[2]int64]runBlock[T], len(s.stored))
	for _, rb := range s.stored {
		stored[[2]int64{int64(rb.run), rb.blk}] = rb
	}
	// Every PE derives the quota from the same collectively agreed
	// numbers; Sort refused the job if it could come out as 0.
	s.quota = max(mergeQuota(s.cfg.MemElems, int64(len(pred)), int64(s.j.BElem), int64(s.runs), n.P, s.cfg.Randomize), 1)
	out := s.newStriper(output, s.totalN, func(g int64, data []T) {
		s.outBlocks = append(s.outBlocks, stripedBlock{idx: g, id: s.writeBlock(data), len: len(data)})
	})
	pending := make([][]piece[T], s.runs)
	var merged []T // one batch's is striped before the next is merged
	var outCur int64
	for cursor := 0; cursor < len(pred); s.batches++ {
		end := s.batchEnd(pred, cursor)
		if err := s.fetch(pred[cursor:end], stored, pending); err != nil {
			return err
		}
		// The barrier is the smallest unfetched element, known from the
		// prediction sequence.
		var barrier *predEntry[T]
		if end < len(pred) {
			barrier = &pred[end]
		}
		// Distributed merge of the emitted chunks, then stripe the result
		// to the output — the two communications per element of the
		// merging pass.
		var lo, emitted int64
		var err error
		if merged, lo, emitted, err = s.sortSampled(n, s.extract(pending, barrier), merged[:0]); err != nil {
			return fmt.Errorf("stripesort: merge batch %d: %w", s.batches, err)
		}
		out.stripe(outCur+lo, merged)
		n.Mem.Release(2 * int64(len(merged)))
		outCur += emitted
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

// batchEnd returns where the batch starting at pred[cursor] ends: the
// longest stretch of the prediction sequence of which no PE homes more
// than the quota. Every PE computes the same boundary.
func (s *pe[T]) batchEnd(pred []predEntry[T], cursor int) int {
	perPE := make([]int64, s.n.P)
	end := cursor
	for ; end < len(pred); end++ {
		h := s.home(pred[end].run, pred[end].blk)
		if perPE[h] == s.quota {
			break
		}
		perPE[h]++
	}
	return end
}

// sortSampled is the distributed sort both phases end in (a job.RunSort):
// this PE's sorted chunk is cut at sample splitters and redistributed by
// SortAcross, so the merged pieces concatenate in rank order to the
// sorted union of all chunks. The cuts are only approximately even — the
// stripe that follows fixes the positions — so the piece lengths are
// gathered: the result is this PE's piece, where it starts in the union,
// and the union's length.
func (s *pe[T]) sortSampled(n *cluster.Node, chunk, dst []T) ([]T, int64, int64, error) {
	cuts, total := sampleCuts(s.c, n, chunk)
	merged := s.j.SortAcross(n, chunk, cuts, dst)
	var lo, sum int64
	for q, l := range allGatherInt64(n, int64(len(merged))) {
		if q < n.Rank {
			lo += l
		}
		sum += l
	}
	if sum != total {
		return nil, 0, 0, fmt.Errorf("the PEs received %d elements of the %d they contributed", sum, total)
	}
	return merged, lo, total, nil
}

// fetch reads this PE's resident blocks of one batch (asynchronously)
// and queues each behind its run's pending pieces, charged to the
// budget until emitted.
func (s *pe[T]) fetch(batch []predEntry[T], stored map[[2]int64]runBlock[T], pending [][]piece[T]) error {
	n, sz := s.n, s.c.Size()
	type fetched struct {
		rb     runBlock[T]
		raw    []byte
		handle blockio.Handle
	}
	var fs []fetched
	for _, e := range batch {
		if s.home(e.run, e.blk) != n.Rank {
			continue
		}
		rb, ok := stored[[2]int64{int64(e.run), e.blk}]
		if !ok {
			return fmt.Errorf("stripesort: PE %d homes block %d of run %d but never stored it", n.Rank, e.blk, e.run)
		}
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
	s.maxFetch = max(s.maxFetch, int64(len(fs)))
	n.AddCPU(s.cfg.Model.ScanCPU(int64(len(fs) * s.j.BElem)))
	return nil
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
					return !s.ord.LessK(s.ord.Key(v), v, r, pc.pos+int64(i), barrier.firstKey, barrier.first, barrier.run, bPos)
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

// collectWindow is w, the number of consecutive output blocks an owner
// receives per collect round. A round carries a window for every owner,
// so a home ships up to w/P blocks to each of the P owners — w in all —
// while an owner reorders w; w·B ≤ m/4 leaves room for A2ARounds' two
// posted rounds and the receive being sunk, in whole blocks per (home,
// owner) pair, 4 of them when memory allows.
func collectWindow(memElems int64, bElem, p int) int64 {
	perPair := int64(4)
	if memElems > 0 {
		perPair = max(min(perPair, memElems/(4*int64(bElem)*int64(p))), 1)
	}
	return perPair * int64(p)
}

// collectOutput re-routes the globally striped output blocks to their
// canonical owners and feeds them to the sink in output order: rank i
// receives blocks [G·i/P, G·(i+1)/P), so the per-rank sink streams
// concatenate — in rank order — to the sorted sequence, exactly like
// core.Sort's canonical partition. Round k ships to every owner i the
// blocks [lo_i + k·w, lo_i + (k+1)·w) of its range, so all P ranks
// receive and sink in every round, and both a home's staging and an
// owner's reorder buffer are bounded by w·B (collectWindow). Homes free
// their blocks as they are shipped, so the striped copy is consumed in
// place.
func collectOutput[T any](c elem.Codec[T], n *cluster.Node, cfg *Config, bElem int, blocks []stripedBlock, sink func(rank int, b []byte) error) (int64, error) {
	if sink == nil {
		return 0, nil
	}
	sz := c.Size()
	maxIdx := int64(-1)
	for _, b := range blocks {
		maxIdx = max(maxIdx, b.idx)
	}
	total := n.AllReduceInt64(maxIdx+1, "max") // G: global output blocks
	if total == 0 {
		return 0, nil
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].idx < blocks[j].idx })
	bounds := job.RankBounds(total, n.P)
	w := collectWindow(cfg.MemElems, bElem, n.P)
	// next[i] is this home's first unshipped block of owner i's range.
	next := make([]int, n.P)
	var widest int64
	for i := range next {
		next[i] = sort.Search(len(blocks), func(k int) bool { return blocks[k].idx >= bounds[i] })
		widest = max(widest, bounds[i+1]-bounds[i])
	}
	const hdr = 12 // (block index, element count)
	type entry struct {
		idx  int64
		data []byte
	}
	var entries []entry
	var sunk int64
	// The rounds run as one pipeline (Node.A2ARounds): with a stream
	// window of 2, round k+1's blocks are read off the store and staged
	// while round k is still on the wire, so the part-file sink writes
	// overlap the next exchange (§IV-E). buildSend stages round k — each
	// send vector sized from its block count, taken from the arena once
	// and read into straight from the store — and reports its elements as
	// the exchange's budget charge, which A2ARounds holds until the round
	// is collected, hence written; drain sinks one round's receives.
	// Any stream window issues the same calls in the same per-PE order, so
	// the sink streams are byte-identical.
	buildSend := func(k int) ([][]byte, int64) {
		send := make([][]byte, n.P)
		var sendElems int64
		for i := range send {
			first, size := next[i], 0
			for end := min(bounds[i]+int64(k+1)*w, bounds[i+1]); next[i] < len(blocks) && blocks[next[i]].idx < end; next[i]++ {
				size += hdr + blocks[next[i]].len*sz
			}
			send[i] = bufpool.Get(size)
			buf := send[i]
			for _, b := range blocks[first:next[i]] {
				binary.LittleEndian.PutUint64(buf[:8], uint64(b.idx))
				binary.LittleEndian.PutUint32(buf[8:hdr], uint32(b.len))
				n.Vol.ReadWait(b.id, buf[hdr:hdr+b.len*sz])
				n.Vol.Free(b.id)
				buf = buf[hdr+b.len*sz:]
				sendElems += int64(b.len)
			}
		}
		return send, sendElems
	}
	drain := func(_ int, recv [][]byte) error {
		entries = entries[:0]
		var recvElems int64
		for _, buf := range recv {
			for len(buf) > 0 {
				idx := int64(binary.LittleEndian.Uint64(buf[:8]))
				cnt := int(binary.LittleEndian.Uint32(buf[8:hdr]))
				entries = append(entries, entry{idx: idx, data: buf[hdr : hdr+cnt*sz]})
				recvElems += int64(cnt)
				buf = buf[hdr+cnt*sz:]
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
	err := n.A2ARounds(int((widest+w-1)/w), buildSend, drain)
	return sunk, err
}

// sampleFactor·P is the number of regular samples a PE contributes to
// sampleCuts. It fixes how uneven the cuts can be: see recvBound.
const sampleFactor = 8

// recvBound is the most elements SortAcross can hand one PE when total
// elements are cut by sampleCuts. With s regular samples per PE, a PE's
// elements between two splitters are those its samples in between stand
// for plus at most one more sample's worth, and a splitter misses its
// target weight by less than the heaviest sample: an even share, 1/s of
// the total, 1/s of the largest chunk, and a rounding element per PE.
// With s = sampleFactor·P that is at most 1 + 2/sampleFactor = 5/4 of an
// even share — the constant mergeQuota and runFraction charge.
func recvBound(total int64, p int) int64 {
	share := (total + int64(p) - 1) / int64(p)
	return min(total, share+(2*share+sampleFactor-1)/sampleFactor+int64(p)+2)
}

// sampleCuts computes order-consistent (but only approximately
// balanced, see recvBound) cut positions of this PE's sorted chunk for a
// P-way distribution, and the total length of all chunks: every PE
// contributes up to sampleFactor·P evenly spaced elements, each weighted
// by the stretch of the chunk it starts; all PEs derive the same P-1
// splitters from the pooled sample — splitter i is the first sample with
// i/P of the weight before it — and each cuts its chunk at those
// splitters under the (value, PE, position) total order, so the
// distributed pieces are globally ordered even with duplicate keys. A
// machine without elements has no sample and cuts everywhere at 0.
func sampleCuts[T any](c elem.Codec[T], n *cluster.Node, chunk []T) ([]int64, int64) {
	sz, ord := c.Size(), mselect.OrderOf(c)
	// Sample i of k is the element at position ⌊len·i/k⌋ and stands for
	// the stretch up to the next one: the chunk length and the k elements
	// are all a PE has to say.
	at := func(ln, k, i int64) int64 { return ln * i / k }
	samples := func(ln int64) int64 { return min(int64(sampleFactor*n.P), ln) }
	ln := int64(len(chunk))
	k := samples(ln)
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+int(k)*sz), uint64(ln))
	for i := int64(0); i < k; i++ {
		idx := at(ln, k, i)
		buf = elem.AppendEncode(c, buf, chunk[idx:idx+1])
	}
	type cand struct {
		v      T
		key    uint64
		pe     int
		idx    int64
		weight int64
	}
	var pool []cand
	var total int64
	for pe, b := range n.AllGather(buf) {
		peLen := int64(binary.LittleEndian.Uint64(b))
		total += peLen
		for i, k := int64(0), samples(peLen); i < k; i++ {
			idx, enc := at(peLen, k, i), b[8+int(i)*sz:]
			v := c.Decode(enc[:sz])
			pool = append(pool, cand{v: v, key: ord.Key(v), pe: pe, idx: idx, weight: at(peLen, k, i+1) - idx})
		}
	}
	sort.Slice(pool, func(a, b int) bool {
		pa, pb := pool[a], pool[b]
		return ord.LessK(pa.key, pa.v, pa.pe, pa.idx, pb.key, pb.v, pb.pe, pb.idx)
	})
	cuts := make([]int64, n.P-1)
	t, before := 0, int64(0) // before is the weight of pool[:t]
	for i := range cuts {
		for target := total * int64(i+1) / int64(n.P); t < len(pool) && before < target; t++ {
			before += pool[t].weight
		}
		if t == len(pool) { // the splitter lies beyond every element
			cuts[i] = ln
			continue
		}
		// Count my chunk elements ordered before the splitter — the same
		// total order on every PE keeps the distributed pieces disjoint
		// and ordered.
		sp := pool[t]
		cuts[i] = int64(sort.Search(len(chunk), func(j int) bool {
			v := chunk[j]
			return !ord.LessK(ord.Key(v), v, n.Rank, int64(j), sp.key, sp.v, sp.pe, sp.idx)
		}))
	}
	return cuts, total
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
