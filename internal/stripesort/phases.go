package stripesort

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"demsort/internal/blockio"
	"demsort/internal/bufpool"
	"demsort/internal/cluster"
	"demsort/internal/dselect"
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
	// stored holds the striped run blocks this PE homes by (run, block) —
	// phase 1's product, the merge's input — and firsts their (run,
	// block, first element) entries of the prediction sequence.
	stored map[[2]int64]runBlock
	firsts []byte
	// outBlocks lists the striped output blocks this PE homes, in index
	// order — the merge's product when there is no sink.
	outBlocks []blockio.BlockID
	owners    []int64 // with a sink, the output's RankBounds(G, P)
	batches   int
	// quota is the merge's fetch quota (Plan.MergeQuota), maxFetch the most
	// blocks this PE did fetch in one batch.
	quota, maxFetch int64
	outN            int64 // the output elements stored or sunk
	// The merge's storage, reused across batches: extract's output, its
	// sequences and the read buffers it empties.
	batch []T
	seqs  [][]T
	spent [][]byte
	// piece is sortSampled's merged piece, reused across runs and batches.
	piece []T
}

// runBlock is block blk of run run, stored here as block id with len
// elements.
type runBlock struct {
	run int
	blk int64
	id  blockio.BlockID
	len int
}

// runPE executes the whole striped sort on one PE; sink receives the
// rank's canonical block range of the sorted output (nil = leave the
// output striped on the volumes).
func runPE[T any](j *job.Job[T], c elem.Codec[T], n *cluster.Node, cfg *Config, sink func(rank int, b []byte) error) (*pe[T], error) {
	// Open the input (unmeasured; a forward-only Source is staged).
	input, err := j.Load(n)
	if err != nil {
		return nil, fmt.Errorf("stripesort: %w", err)
	}
	s := &pe[T]{j: j, c: c, n: n, cfg: cfg, ord: mselect.OrderOf(c), stored: map[[2]int64]runBlock{}}
	if err := s.formRuns(input); err != nil {
		return nil, err
	}
	if err := s.mergeBatches(s.predict(), sink); err != nil {
		return nil, err
	}
	// Outside the measured phases, like core.Sort's collect step: every
	// element of the runs was stored or sunk exactly once.
	n.SetPhase(job.PhaseCollect)
	if outN := n.AllReduceInt64(s.outN, "sum"); outN != s.totalN {
		return nil, fmt.Errorf("stripesort: %d elements in the output, %d in the runs", outN, s.totalN)
	}
	return s, nil
}

// formRuns is phase 1, run formation with global striping: the shared
// run formation, each run sorted across the machine under sample
// splitters — its stripe fixes the positions, so the cuts need not be
// exact — and striped over the machine as it completes.
func (s *pe[T]) formRuns(input *job.Input) error {
	n, model, sz := s.n, &s.cfg.Model, s.c.Size()
	n.SetPhase(PhaseRunForm)
	var err error
	s.runs, err = s.j.FormRuns(n, input, 0x57121, func(run int, chunk dselect.Sorted[T]) error {
		return s.sortSampled(n, chunk, func(seg []T, segStart, runLen int64) error {
			st := s.newStriper(run, runLen, func(g int64, data []byte) error {
				s.stored[[2]int64{int64(run), g}] = runBlock{run: run, blk: g, id: s.writeBlock(data), len: len(data) / sz}
				s.firsts = binary.LittleEndian.AppendUint32(s.firsts, uint32(run))
				s.firsts = binary.LittleEndian.AppendUint64(s.firsts, uint64(g))
				s.firsts = append(s.firsts, data[:sz]...)
				return nil
			})
			if err := st.stripe(segStart, seg); err != nil {
				return err
			}
			n.AddCPU(2 * model.ScanCPU(int64(len(seg))))
			s.totalN += runLen
			return st.done()
		})
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
// plainly, block g on PE g mod P — with a sink, on its canonical owner,
// the i with owners[i] ≤ g < owners[i+1]. A run's stripe is rotated
// under Randomize: block g of run r lives on PE (g + r) mod P.
// Randomised run formation makes all runs alike, so the prediction
// sequence lists block g of every run back to back; were every run
// striped from PE 0, one PE would home each such stretch — and every
// run's leftover block — while the others wait. Rotating the stripes
// spreads both (randomized cycling). Without Randomize nothing promises
// that runs are alike, and the stripes stay unrotated.
func (s *pe[T]) home(run int, blk int64) int {
	if run == output && s.owners != nil {
		return sort.Search(s.n.P, func(i int) bool { return s.owners[i+1] > blk })
	}
	if run != output && s.cfg.Randomize {
		blk += int64(run)
	}
	return int(blk % int64(s.n.P))
}

// striper moves pieces of one block-striped sequence of total elements
// — run run or the output; block g, elements [g·B, (g+1)·B), lives on
// PE home(run, g) — from the PEs that produced them to the PEs that
// store them: the extra communication of Section III. The pieces of a
// block arrive in order — they concatenate in sender order, and calls
// follow the sequence — so a block assembles, encoded, by appending
// them, across calls; emit receives each block this PE homes once, when
// its last element has arrived, in ascending order.
type striper[T any] struct {
	*pe[T]
	run   int
	total int64
	emit  func(g int64, data []byte) error
	asm   map[int64][]byte // the blocks under assembly
}

func (s *pe[T]) newStriper(run int, total int64, emit func(g int64, data []byte) error) *striper[T] {
	return &striper[T]{pe: s, run: run, total: total, emit: emit, asm: map[int64][]byte{}}
}

// stripeHdr is the (block, offset, count) header of a striped piece.
const stripeHdr = 16

// stripe is collective: this PE contributes elements [lo, lo+len(elems))
// of the sequence, cut at block boundaries and sent to each block's home
// under a (block, offset, count) header; arriving pieces are appended to
// their block's assembly buffer, charged while it waits. The send
// vectors are charged from their encoding until they are handed off,
// and what arrives is charged until it is recycled. A piece of a block
// this PE does not home, or one that does not continue its block within
// the block's end, fails the sort naming its sender.
func (s *striper[T]) stripe(lo int64, elems []T) error {
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
	n.Mem.MustAcquire(int64(len(elems)))
	pieces(func(home int, g, off int64, piece []T) {
		buf := send[home][at[home]:]
		binary.LittleEndian.PutUint64(buf[:8], uint64(g))
		binary.LittleEndian.PutUint32(buf[8:12], uint32(off))
		binary.LittleEndian.PutUint32(buf[12:16], uint32(len(piece)))
		elem.EncodeInto(s.c, buf[stripeHdr:], piece)
		at[home] += stripeHdr + len(piece)*sz
	})
	recv := n.AllToAllv(send)
	n.Mem.Release(int64(len(elems))) // handed off to the receivers
	defer cluster.RecycleRecv(recv)
	var got int64
	for _, buf := range recv {
		got += int64((len(buf) + sz - 1) / sz)
	}
	n.Mem.MustAcquire(got)
	defer n.Mem.Release(got)
	for q, buf := range recv {
		for len(buf) > 0 {
			g := int64(binary.LittleEndian.Uint64(buf[:8]))
			off := int(binary.LittleEndian.Uint32(buf[8:12]))
			cnt := int(binary.LittleEndian.Uint32(buf[12:16]))
			if g < 0 || g*bElem >= s.total || s.home(s.run, g) != n.Rank {
				return fmt.Errorf("PE %d received a piece of block %d from PE %d, a block it does not home", n.Rank, g, q)
			}
			bLen := int(min(bElem, s.total-g*bElem))
			a := s.asm[g]
			if off != len(a)/sz || off+cnt > bLen {
				return fmt.Errorf("PE %d received elements [%d, %d) of block %d from PE %d; the block is %d elements long and holds the first %d", n.Rank, off, off+cnt, g, q, bLen, len(a)/sz)
			}
			if a == nil {
				a = bufpool.Get(bLen * sz)[:0]
				n.Mem.MustAcquire(int64(bLen))
			}
			a = append(a, buf[stripeHdr:stripeHdr+cnt*sz]...)
			buf = buf[stripeHdr+cnt*sz:]
			s.asm[g] = a
			if len(a) < bLen*sz {
				continue
			}
			if err := s.emit(g, a); err != nil {
				return err
			}
			delete(s.asm, g)
			bufpool.Put(a)
			n.Mem.Release(int64(bLen))
		}
	}
	return nil
}

// done checks that the whole sequence has been striped: every block
// that started assembling was completed.
func (s *striper[T]) done() error {
	if len(s.asm) != 0 {
		return fmt.Errorf("%d striped blocks left incomplete", len(s.asm))
	}
	return nil
}

// writeBlock persists one encoded striped block on the local volume.
func (s *pe[T]) writeBlock(data []byte) blockio.BlockID {
	id := s.n.Vol.Alloc()
	s.n.Vol.WriteAsync(id, data)
	return id
}

// predict closes phase 1 with the global prediction sequence: the first
// key of every block of every run, allgathered and sorted, so each PE
// can compute the fetch order deterministically. The table stays
// charged until the merge is over.
func (s *pe[T]) predict() []predEntry[T] {
	n, sz := s.n, s.c.Size()
	var pred []predEntry[T]
	for _, pb := range n.AllGather(s.firsts) {
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
// at run position pos and view raw, the pooled buffer the block was
// read into.
type piece[T any] struct {
	pos   int64
	elems []T
	raw   []byte
}

// mergeBatches is phase 2, prediction-driven batch merging: blocks are
// fetched in prediction order, a batch at a time; what is smaller than
// the first unfetched element is merged across the machine and striped
// to the output — onto the volumes (no sink) or, block by block, to its
// owners' sinks — the rest waits for the next batch.
func (s *pe[T]) mergeBatches(pred []predEntry[T], sink func(rank int, b []byte) error) error {
	n := s.n
	n.SetPhase(PhaseMerge)
	// Every PE derives the quota from the same collectively agreed
	// table; the plan refused the job if it could come out as 0.
	s.quota = max(s.j.MergeQuota(int64(len(pred))), 1)
	b := int64(s.j.BElem)
	if sink != nil {
		s.owners = job.RankBounds((s.totalN+b-1)/b, n.P)
	}
	// An owner's blocks reach its sink one after the other: the outN/B it
	// has sunk are whole, so the next is its first plus those.
	out := s.newStriper(output, s.totalN, func(g int64, data []byte) error {
		if sink == nil {
			s.outBlocks = append(s.outBlocks, s.writeBlock(data))
		} else if next := s.owners[n.Rank] + s.outN/b; g != next {
			return fmt.Errorf("owner %d completed output block %d before its block %d", n.Rank, g, next)
		} else if err := sink(n.Rank, data); err != nil {
			return fmt.Errorf("output sink, rank %d: %w", n.Rank, err)
		}
		s.outN += int64(len(data) / s.c.Size())
		return nil
	})
	pending := make([][]piece[T], s.runs)
	var outCur int64
	for cursor := 0; cursor < len(pred); s.batches++ {
		end := s.batchEnd(pred, cursor)
		if err := s.fetch(pred[cursor:end], pending); err != nil {
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
		err := s.sortSampled(n, dselect.Sorted[T]{Vals: s.extract(pending, barrier)}, func(merged []T, start, total int64) error {
			outCur += total
			return out.stripe(outCur-total+start, merged)
		})
		if err != nil {
			return fmt.Errorf("stripesort: merge batch %d: %w", s.batches, err)
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

// sortSampled is the distributed sort both phases end in: this PE's
// sorted chunk is cut at sample splitters and redistributed by
// SortAcross, whose parts are merged into the PE's reused piece buffer,
// so the pieces concatenate in rank order to the sorted union of all
// chunks. The cuts are only approximately even — the stripe fixes the
// positions — so stripe gets the piece with where it starts in the union
// and the union's length, which the last piece must end at. The piece
// is charged until stripe returns; the received buffers are recycled
// before it runs, so it draws on bufpool without them.
func (s *pe[T]) sortSampled(n *cluster.Node, chunk dselect.Sorted[T], stripe func(piece []T, start, total int64) error) error {
	cuts, total := sampleCuts(s.c, n, chunk)
	var start int64
	err := s.j.SortAcross(n, chunk, cuts, func(parts [][]T, got, at int64) error {
		if end := at + got; end > total || n.Rank == n.P-1 && end != total {
			return fmt.Errorf("received elements [%d, %d) of the %d the PEs contributed", at, end, total)
		}
		n.Mem.MustAcquire(got)
		s.piece = xmerge.AppendMerge(s.c, slices.Grow(s.piece[:0], int(got)), parts)
		start = at
		return nil
	})
	if err == nil {
		err = stripe(s.piece, start, total)
		n.Mem.Release(int64(len(s.piece)))
	}
	return err
}

// fetch reads this PE's resident blocks of one batch (asynchronously)
// and queues each, a view of its read buffer (elem.View), behind its
// run's pending pieces, charged to the budget until emitted.
func (s *pe[T]) fetch(batch []predEntry[T], pending [][]piece[T]) error {
	n, sz := s.n, s.c.Size()
	type fetched struct {
		rb     runBlock
		raw    []byte
		handle blockio.Handle
	}
	var fs []fetched
	for _, e := range batch {
		if s.home(e.run, e.blk) != n.Rank {
			continue
		}
		rb, ok := s.stored[[2]int64{int64(e.run), e.blk}]
		if !ok {
			return fmt.Errorf("stripesort: PE %d homes block %d of run %d but never stored it", n.Rank, e.blk, e.run)
		}
		raw := bufpool.Get(rb.len * sz)
		fs = append(fs, fetched{rb: rb, raw: raw, handle: n.Vol.ReadAsync(rb.id, raw)})
	}
	for _, f := range fs {
		n.Vol.Wait(f.handle)
		n.Mem.MustAcquire(int64(f.rb.len))
		pending[f.rb.run] = append(pending[f.rb.run], piece[T]{pos: f.rb.blk * int64(s.j.BElem), elems: elem.View(s.c, f.raw), raw: f.raw})
		n.Vol.Free(f.rb.id)
	}
	s.maxFetch = max(s.maxFetch, int64(len(fs)))
	n.AddCPU(s.cfg.Model.ScanCPU(int64(len(fs) * s.j.BElem)))
	return nil
}

// extract removes from pending everything strictly before the barrier
// (nil: everything) and returns it merged into the PE's batch buffer,
// valid until the next call. Per run the pending pieces form an
// ascending chain, so the emittable part is a prefix of their
// concatenation: each piece's emittable prefix is merged in place as its
// own sequence, run-major and in position order, so ties fall to (run,
// position) as they would in the concatenation. A piece's read buffer
// goes back to the pool once its last element is merged. The budget
// charge of the emitted prefixes passes to the merged chunk.
func (s *pe[T]) extract(pending [][]piece[T], barrier *predEntry[T]) []T {
	var total, bPos int64
	if barrier != nil {
		bPos = barrier.blk * int64(s.j.BElem)
	}
	seqs, spent, runs := s.seqs[:0], s.spent[:0], 0
	for r := range pending {
		rest, before := pending[r][:0], len(seqs)
		for _, pc := range pending[r] {
			cnt := len(pc.elems)
			if barrier != nil {
				cnt = sort.Search(cnt, func(i int) bool {
					v := pc.elems[i]
					return !s.ord.LessK(s.ord.Key(v), v, r, pc.pos+int64(i), barrier.firstKey, barrier.first, barrier.run, bPos)
				})
			}
			if cnt > 0 {
				seqs = append(seqs, pc.elems[:cnt])
				total += int64(cnt)
			}
			if cnt < len(pc.elems) {
				rest = append(rest, piece[T]{pos: pc.pos + int64(cnt), elems: pc.elems[cnt:], raw: pc.raw})
			} else {
				spent = append(spent, pc.raw)
			}
		}
		pending[r] = rest
		if len(seqs) > before {
			runs++
		}
	}
	s.n.AddCPU(s.cfg.Model.MergeCPU(total, runs+1))
	s.batch = xmerge.AppendMerge(s.c, s.batch[:0], seqs)
	for _, raw := range spent {
		bufpool.Put(raw)
	}
	s.seqs, s.spent = seqs, spent
	return s.batch
}

// sampleCuts computes order-consistent (but only approximately
// balanced, see job.RecvBound) cut positions of this PE's sorted chunk
// for a P-way distribution, and the total length of all chunks: every PE
// contributes job.SampleFactor·P regular samples (dselect.RegularSample),
// each weighted by the stretch of the chunk it stands for; all PEs derive
// the same P-1 splitters from the pool — splitter i is the first sample
// with i/P of the weight before it — and each cuts its chunk at those
// splitters under the (value, PE, position) total order, so the
// distributed pieces are globally ordered even with duplicate keys. A
// machine without elements has no sample and cuts everywhere at 0.
func sampleCuts[T any](c elem.Codec[T], n *cluster.Node, chunk dselect.Sorted[T]) ([]int64, int64) {
	ord := mselect.OrderOf(c)
	pool, total := dselect.RegularSample(c, ord, n, chunk, func(int64) int64 { return job.SampleFactor * int64(n.P) })
	cuts := make([]int64, n.P-1)
	t, before := 0, int64(0) // before is the weight of pool[:t]
	for i := range cuts {
		for target := total * int64(i+1) / int64(n.P); t < len(pool) && before < target; t++ {
			before += pool[t].Next - pool[t].Pos
		}
		if t == len(pool) { // the splitter lies beyond every element
			cuts[i] = int64(chunk.Len())
			continue
		}
		cuts[i] = dselect.Before(ord, chunk, n.Rank, pool[t])
	}
	return cuts, total
}
