// Package dselect implements exact distributed multiway selection: the
// splitting step of the paper's internal-memory parallel sort (§IV-B:
// "the internal memory variant of the multiway selection algorithm from
// Section IV-A is used to split the P sorted sequences into P pieces of
// equal size") and, with the same engine, the external selection of
// Section IV-A itself. Every PE holds contiguous pieces of globally
// sorted sequences — one in-memory slice during run formation, its
// on-disk segments of the R runs in phase two — and only pivots and
// counts cross the wire: elements are probed where they live.
//
// All boundary ranks are refined together in synchronous rounds with an
// owner per rank (rank j is coordinated by PE j mod P):
//
//  1. every PE sends the owner up to three weighted quantiles of its
//     interval middles as pivot proposals, and how much lies left of
//     its intervals;
//  2. the owner picks the proposal nearest the cut by mass and
//     publishes it;
//  3. every PE binary-searches its pieces for the pivot and sends the
//     summed count to the owner;
//  4. the owner compares the global count with the target rank and
//     publishes the direction; every PE shrinks its own intervals.
//
// Interval mass shrinks geometrically (see aim; the pivot's own interval
// shrinks by at least one element every round, so termination is
// unconditional). Small residuals are gathered to the owner and finished
// exactly in memory. Per PE and round the traffic is
// O(#ranks) bytes — independent of P², of the number of pieces and of
// their block count — which is what keeps both selections scalable.
//
// Ranks use the (value, sequence, position) total order, so the
// resulting partition is exact even when every key is equal.
package dselect

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"demsort/internal/cluster"
	"demsort/internal/elem"
	"demsort/internal/mselect"
)

// gatherThreshold is the residual interval mass (elements, summed over
// PEs) below which Cuts gathers a rank's remaining candidates to the
// owner and finishes them exactly.
const gatherThreshold = 512

// Commands published by rank owners: a pivot to count against or the
// order to gather (phase B), then the verdict (phase D).
const (
	cmdPivot   = 1 // payload: pivot (elem, sequence, position)
	cmdGather  = 2 // send the residual intervals to the owner
	cmdLeft    = 3 // pivot was left of the cut: lo = split
	cmdRight   = 4 // pivot was right: hi = split
	cmdDone    = 5 // payload: this PE's final cut of every piece
	cmdRestart = 6 // the warm start excluded the cut: retry from the full range
)

// Piece describes one PE's contiguous piece of a globally sorted
// sequence: elements [Start, Start+Len) of sequence ID. (ID, position)
// break ties between equal values.
type Piece struct {
	ID     int
	Start  int64
	Len    int64
	SeqLen int64 // length of the whole sequence
	// Stride > 1 says the piece lives on storage and Local.At is free
	// only at positions whose global index Start+i is a multiple of
	// Stride (an in-memory sample): searches bisect that grid first and
	// interpolate inside a cell, so only a few probes touch storage.
	Stride int64
}

// Local is one PE's share of the sequences being split.
type Local[T any] interface {
	// Pieces lists this PE's pieces; an entry's index names it in At.
	Pieces() []Piece
	// At returns element i of piece s, 0 <= i < Len.
	At(s int, i int64) T
}

// Interval is a half-open range [Lo, Hi) of positions.
type Interval struct{ Lo, Hi int64 }

// sliceLocal is the single in-memory piece of Cuts: PE rank's whole
// sequence.
type sliceLocal[T any] struct {
	rank int
	vals []T
}

func (l sliceLocal[T]) Pieces() []Piece {
	return []Piece{{ID: l.rank, Len: int64(len(l.vals)), SeqLen: int64(len(l.vals))}}
}
func (l sliceLocal[T]) At(_ int, i int64) T { return l.vals[i] }

// Cuts computes this PE's exact cut positions for the global ranks:
// out[j] is the number of local elements ordered before global rank
// ranks[j] under the exact total-order partition of the P distributed
// sorted sequences. Summed over the PEs, out[j] equals ranks[j].
//
// Every PE must call Cuts collectively with identical ranks.
func Cuts[T any](c elem.Codec[T], n *cluster.Node, local []T, ranks []int64) []int64 {
	out := make([]int64, len(ranks))
	if n.P == 1 {
		for j, r := range ranks {
			if r < 0 || r > int64(len(local)) {
				panic(fmt.Sprintf("dselect: rank %d outside [0,%d]", r, len(local)))
			}
			out[j] = r
		}
		return out
	}
	for j, cut := range Select[T](c, n, sliceLocal[T]{rank: n.Rank, vals: local}, ranks, nil, gatherThreshold) {
		out[j] = cut[0]
	}
	return out
}

// pivot is an element with its place in the total order.
type pivot[T any] struct {
	v   T
	id  int
	pos int64 // global position within sequence id
}

// weighted is a pivot candidate: the middle of an interval (or a PE's
// proposal) with the mass it stands for.
type weighted[T any] struct {
	pivot[T]
	w int64
}

type engine[T any] struct {
	c   elem.Codec[T]
	ord mselect.Order[T]
	loc Local[T]
	pcs []Piece
}

// bracket is one rank's interval [Lo, Hi) in one piece. openLo and
// openHi mark an end that is still where a warm start put it, with
// elements of the sequence beyond: nothing has shown yet that the cut is
// not out there.
type bracket struct {
	Interval
	openLo, openHi bool
}

// grid returns the bracket's free probe positions: first, first+Stride,
// … — cnt of them inside [Lo, Hi).
func (b *bracket) grid(pc Piece) (first, cnt int64) {
	k := pc.Stride
	if k <= 1 {
		return 0, 0
	}
	if first = (pc.Start+b.Lo+k-1)/k*k - pc.Start; first < b.Hi {
		cnt = (b.Hi-1-first)/k + 1
	}
	return first, cnt
}

// mid returns the bracket's middle: on the free grid where the bracket
// spans it.
func (b *bracket) mid(pc Piece) int64 {
	if first, cnt := b.grid(pc); cnt > 0 {
		return first + (cnt-1)/2*pc.Stride
	}
	return (b.Lo + b.Hi) / 2
}

// narrow moves the bracket's ends; a moved end is no longer open.
func (b *bracket) narrow(lo, hi int64) {
	b.openLo = b.openLo && lo == b.Lo
	b.openHi = b.openHi && hi == b.Hi
	b.Lo, b.Hi = lo, hi
}

// byOrder sorts cands under the total order.
func (e *engine[T]) byOrder(cands []weighted[T]) {
	sort.Slice(cands, func(a, b int) bool {
		x, y := cands[a], cands[b]
		return e.ord.Less(x.v, x.id, x.pos, y.v, y.id, y.pos)
	})
}

// proposalQuantiles is how many candidates a PE proposes per rank and
// round: with one (its weighted median) the owner chooses among as many
// elements as PEs hold mass, often two. Three took a quarter off the
// rounds of the 49-run external selection, five no more.
const proposalQuantiles = 3

// thin reduces cands to at most proposalQuantiles of them: its weighted
// quantiles (2i+1)/2q, each standing for a q-th of the mass.
func (e *engine[T]) thin(cands []weighted[T]) []weighted[T] {
	const q = proposalQuantiles
	if len(cands) <= q {
		return cands
	}
	e.byOrder(cands)
	var mass, acc int64
	for _, x := range cands {
		mass += x.w
	}
	var out [q]weighted[T]
	i := int64(0)
	for _, x := range cands {
		for acc += x.w; i < q && 2*q*acc >= (2*i+1)*mass; i++ {
			out[i] = weighted[T]{x.pivot, mass*(i+1)/q - mass*i/q}
		}
	}
	return out[:]
}

// aim returns the candidate to count against when want of the mass that
// cands stand for lies left of the cut: counting from the end nearer the
// cut, the first one at which the candidates' mass reaches it. At least a
// quarter of that mass is on the candidate's near side (half of every
// bracket whose middle is) and, want being the smaller part, at least an
// eighth of all of it on the far side: the verdict takes a fixed fraction
// off either the distance from the cut to its nearer end or the mass —
// O(log mass) rounds, and far fewer as the pick lands next to the cut.
func (e *engine[T]) aim(cands []weighted[T], want, mass int64) pivot[T] {
	e.byOrder(cands)
	if 2*want > mass {
		slices.Reverse(cands)
		want = mass - want
	}
	var acc int64
	for _, x := range cands {
		if acc += x.w; acc >= want {
			return x.pivot
		}
	}
	return cands[len(cands)-1].pivot
}

// split returns where pv falls in bracket b of piece s: Lo plus how many
// elements of [Lo, Hi) order before pv. Probes run cheapest first: the
// free stride positions, then — on a side no stride position bounds —
// the bracket's end (a bracket the pivot misses costs the same probe
// every round, which a block cache absorbs), then a search of what is
// left: on storage from where the bounding keys interpolate pv,
// galloping outwards, so that nearly uniform keys cost a few
// neighbouring blocks and any others at most twice a bisection.
func (e *engine[T]) split(s int, b *bracket, pv pivot[T], pk uint64) int64 {
	pc := e.pcs[s]
	lo, hi := b.Lo, b.Hi
	var kLo, kHi uint64 // keys of the elements at lo-1 and hi, once compared
	var bounded int
	try := func(i int64, v T) bool {
		k := e.ord.Key(v)
		if e.ord.LessK(k, v, pc.ID, pc.Start+i, pk, pv.v, pv.id, pv.pos) {
			lo, kLo, bounded = i+1, k, bounded|1
			return true
		}
		hi, kHi, bounded = i, k, bounded|2
		return false
	}
	at := func(i int64) bool { return try(i, e.loc.At(s, i)) }

	if first, cnt := b.grid(pc); cnt > 0 {
		for l, h := int64(0), cnt; l < h; {
			if m := (l + h) / 2; at(first + m*pc.Stride) {
				l = m + 1
			} else {
				h = m
			}
		}
	}
	if lo == b.Lo && lo < hi {
		at(lo)
	}
	if hi == b.Hi && lo < hi {
		at(hi - 1)
	}
	if pc.Stride > 1 && bounded == 3 && kLo < kHi && hi-lo > 8 {
		g := lo + int64(float64(pk-kLo)/float64(kHi-kLo)*float64(hi-lo))
		if at(min(max(g, lo), hi-1)) {
			for step := int64(1); lo+step < hi && at(lo+step); step *= 2 {
			}
		} else {
			for step := int64(1); hi-step >= lo && !at(hi-step); step *= 2 {
			}
		}
	}
	for lo < hi {
		at(lo + (hi-lo)/2)
	}
	return lo
}

func (e *engine[T]) appendElem(b []byte, v T) []byte {
	n := len(b)
	b = append(b, make([]byte, e.c.Size())...)
	e.c.Encode(b[n:], v)
	return b
}

func (e *engine[T]) appendPivot(b []byte, pv pivot[T]) []byte {
	b = e.appendElem(b, pv.v)
	b = binary.LittleEndian.AppendUint32(b, uint32(pv.id))
	return binary.LittleEndian.AppendUint64(b, uint64(pv.pos))
}

// reader consumes one peer's buffer of fixed-order records.
type reader struct{ b []byte }

func (r *reader) byte() byte { v := r.b[0]; r.b = r.b[1:]; return v }
func (r *reader) u32() int   { v := binary.LittleEndian.Uint32(r.b); r.b = r.b[4:]; return int(v) }
func (r *reader) i64() int64 { v := binary.LittleEndian.Uint64(r.b); r.b = r.b[8:]; return int64(v) }

func readPivot[T any](e *engine[T], r *reader) pivot[T] {
	sz := e.c.Size()
	v := e.c.Decode(r.b[:sz])
	r.b = r.b[sz:]
	return pivot[T]{v: v, id: r.u32(), pos: r.i64()}
}

func readers(bufs [][]byte) []reader {
	rs := make([]reader, len(bufs))
	for q, b := range bufs {
		rs[q].b = b
	}
	return rs
}

// residual is one gathered bracket: the elements from global position
// pos of sequence id on, sent by PE q.
type residual[T any] struct {
	q              int
	id             int
	pos            int64
	openLo, openHi bool
	vals           []T
}

// Select is the round engine: it returns, for every global rank, this
// PE's cut of each of its pieces — out[j][s] elements of piece s order
// before global rank ranks[j] under the (value, sequence, position)
// total order. Summed over all pieces of all PEs, out[j] equals
// ranks[j].
//
// warm[j][s], when warm is non-nil, is a range of positions of piece s's
// sequence believed to hold rank j's cut of it strictly inside (a sample
// estimate widened by its likely error); every piece of a sequence gets
// the same range. It only saves rounds: the residual gather proves the
// cut exact, and a rank whose ranges turn out to exclude it is redone
// from the full range.
//
// gather is the residual interval mass (elements, summed over PEs) at
// which a rank's remaining candidates are shipped to its owner instead
// of bisected further: gatherThreshold when probes are memory reads, a
// few storage blocks per sequence when they are not. The owner holds at
// most that many elements, charged to its budget.
//
// Every PE must call Select collectively with identical ranks and
// gather, and with warm nil on all PEs or on none.
func Select[T any](c elem.Codec[T], n *cluster.Node, loc Local[T], ranks []int64, warm [][]Interval, gather int64) [][]int64 {
	p, me := n.P, n.Rank
	e := &engine[T]{c: c, ord: mselect.OrderOf(c), loc: loc, pcs: loc.Pieces()}
	pcs := e.pcs
	nRanks := len(ranks)
	out := make([][]int64, nRanks)
	var total int64
	for _, r := range ranks {
		total = max(total, r)
	}
	// Adapt the gather threshold to the instance: on the big run-
	// formation selections the full threshold saves rounds, on the
	// small per-batch selections of the striped merge it would move a
	// large fraction of the data as metadata.
	thr := max(min(gather, total/(8*int64(p))), 16)
	// iv[j][s] brackets rank j's cut of piece s; split[j][s] is the
	// last pivot's position in it. A cold rank started from the full
	// range, so its brackets hold the cut by construction.
	iv := make([][]bracket, nRanks)
	split := make([][]int64, nRanks)
	cold := make([]bool, nRanks)
	done := make([]bool, nRanks)
	reset := func(j int) {
		cold[j] = true
		for s, pc := range pcs {
			iv[j][s] = bracket{Interval: Interval{0, pc.Len}}
		}
	}
	for j := range iv {
		iv[j] = make([]bracket, len(pcs))
		split[j] = make([]int64, len(pcs))
		if warm == nil {
			reset(j)
			continue
		}
		for s, pc := range pcs {
			// At least one element of the sequence inside, so that an
			// end with elements beyond it lies in exactly one piece.
			lo := min(max(warm[j][s].Lo, 0), max(pc.SeqLen-1, 0))
			hi := max(min(warm[j][s].Hi, pc.SeqLen), min(lo+1, pc.SeqLen))
			end := pc.Start + pc.Len
			l := min(max(lo, pc.Start), end) - pc.Start
			iv[j][s] = bracket{
				Interval: Interval{l, max(min(hi, end)-pc.Start, l)},
				openLo:   lo > 0 && lo >= pc.Start && lo < end,
				openHi:   hi < pc.SeqLen && hi > pc.Start && hi <= end,
			}
		}
	}
	owner := func(j int) int { return j % p }
	// forActive visits the unfinished ranks in index order — the order
	// every PE writes and reads the per-owner record streams in.
	forActive := func(f func(j int)) {
		for j := range done {
			if !done[j] {
				f(j)
			}
		}
	}

	cmds := make([]byte, nRanks)
	pivots := make([]pivot[T], nRanks)
	var cands []weighted[T]
	var res []residual[T]
	for active := nRanks; active > 0; {
		// --- A: pivot proposals per rank to its owner ---
		send := make([][]byte, p)
		forActive(func(j int) {
			cands = cands[:0]
			for s := range iv[j] {
				b := &iv[j][s]
				if w := b.Hi - b.Lo; w > 0 {
					mid := b.mid(pcs[s])
					cands = append(cands, weighted[T]{pivot[T]{loc.At(s, mid), pcs[s].ID, pcs[s].Start + mid}, w})
				}
			}
			props := e.thin(cands)
			var below int64
			for s := range iv[j] {
				below += iv[j][s].Lo
			}
			buf := binary.LittleEndian.AppendUint64(send[owner(j)], uint64(below))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(props)))
			for _, x := range props {
				buf = e.appendPivot(binary.LittleEndian.AppendUint64(buf, uint64(x.w)), x.pivot)
			}
			send[owner(j)] = buf
		})
		props := n.AllToAllv(send)

		// --- B: owners pick pivots (or call the gather) and publish ---
		rs := readers(props)
		var pub []byte
		forActive(func(j int) {
			if owner(j) != me {
				return
			}
			var mass int64
			cands = cands[:0]
			want := ranks[j]
			for q := range rs {
				want -= rs[q].i64()
				for cnt := rs[q].u32(); cnt > 0; cnt-- {
					w := rs[q].i64()
					mass += w
					cands = append(cands, weighted[T]{readPivot(e, &rs[q]), w})
				}
			}
			if mass <= thr {
				pub = append(pub, cmdGather)
				return
			}
			pub = e.appendPivot(append(pub, cmdPivot), e.aim(cands, want, mass))
		})
		cluster.RecycleRecv(props)
		rs = readers(n.AllGather(pub))

		// --- C: counts and gathered residuals to owners ---
		send = make([][]byte, p)
		forActive(func(j int) {
			r := &rs[owner(j)]
			cmds[j] = r.byte()
			buf := send[owner(j)]
			if cmds[j] == cmdPivot {
				pv := readPivot(e, r)
				pivots[j] = pv
				pk := e.ord.Key(pv.v)
				var sum int64
				for s := range iv[j] {
					split[j][s] = e.split(s, &iv[j][s], pv, pk)
					sum += split[j][s]
				}
				send[owner(j)] = binary.LittleEndian.AppendUint64(buf, uint64(sum))
				return
			}
			// The residual: what lies left of the brackets, and every
			// non-empty bracket with its elements. An open end that the
			// cut may not touch is flagged — for an empty bracket the
			// cut is on it.
			var fixed int64
			var onOpenEnd byte
			shipped := 0
			for s := range iv[j] {
				b := &iv[j][s]
				fixed += b.Lo
				if b.Lo < b.Hi {
					shipped++
				} else if b.openLo || b.openHi {
					onOpenEnd = 1
				}
			}
			buf = append(buf, onOpenEnd)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(fixed))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(shipped))
			for s := range iv[j] {
				b := &iv[j][s]
				if b.Lo == b.Hi {
					continue
				}
				var open byte
				if b.openLo {
					open |= 1
				}
				if b.openHi {
					open |= 2
				}
				buf = binary.LittleEndian.AppendUint32(append(buf, open), uint32(pcs[s].ID))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(pcs[s].Start+b.Lo))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(b.Hi-b.Lo))
				for i := b.Lo; i < b.Hi; i++ {
					buf = e.appendElem(buf, loc.At(s, i))
				}
			}
			send[owner(j)] = buf
		})
		replies := n.AllToAllv(send)

		// --- D: owners aggregate and answer ---
		rs = readers(replies)
		send = make([][]byte, p)
		forActive(func(j int) {
			if owner(j) != me {
				return
			}
			if cmds[j] == cmdPivot {
				var sum int64
				for q := range rs {
					sum += rs[q].i64()
				}
				kind := byte(cmdRight)
				if sum < ranks[j] {
					kind = cmdLeft
				}
				for q := range send {
					send[q] = append(send[q], kind)
				}
				return
			}
			res = res[:0]
			want, ok := ranks[j], true
			var gathered int64
			for q := range rs {
				r := &rs[q]
				ok = r.byte() == 0 && ok
				want -= r.i64()
				for cnt := r.u32(); cnt > 0; cnt-- {
					open := r.byte()
					x := residual[T]{q: q, openLo: open&1 != 0, openHi: open&2 != 0, id: r.u32(), pos: r.i64()}
					k := int(r.i64())
					x.vals = elem.DecodeSlice(c, r.b, k)
					r.b = r.b[k*c.Size():]
					gathered += int64(k)
					res = append(res, x)
				}
			}
			n.Mem.MustAcquire(gathered)
			cuts, inside := finish(c, res, want)
			n.Mem.Release(gathered)
			if ok = ok && inside; !ok && cold[j] {
				panic(fmt.Sprintf("dselect: rank %d: residual gather from full-range intervals does not contain the cut", j))
			}
			for q := range send {
				if !ok {
					send[q] = append(send[q], cmdRestart)
					continue
				}
				send[q] = append(send[q], cmdDone)
			}
			if ok {
				for k, x := range res {
					send[x.q] = binary.LittleEndian.AppendUint64(send[x.q], uint64(cuts[k]))
				}
			}
		})
		cluster.RecycleRecv(replies)
		answers := n.AllToAllv(send)
		rs = readers(answers)
		forActive(func(j int) {
			r := &rs[owner(j)]
			switch kind := r.byte(); kind {
			case cmdLeft:
				pv := pivots[j]
				for s, pc := range pcs {
					lo := split[j][s]
					if i := pv.pos - pc.Start; pc.ID == pv.id && i >= 0 && i < pc.Len {
						lo = i + 1 // the pivot itself belongs left
					}
					iv[j][s].narrow(lo, iv[j][s].Hi)
				}
			case cmdRight:
				for s := range pcs {
					iv[j][s].narrow(iv[j][s].Lo, split[j][s])
				}
			case cmdDone:
				// The shipped brackets' cuts come back in shipping order.
				out[j] = make([]int64, len(pcs))
				for s := range pcs {
					if b := iv[j][s]; b.Lo < b.Hi {
						out[j][s] = b.Lo + r.i64()
					} else {
						out[j][s] = b.Lo
					}
				}
				done[j] = true
				active--
			case cmdRestart:
				reset(j)
			default:
				panic(fmt.Sprintf("dselect: bad answer %d", kind))
			}
		})
		cluster.RecycleRecv(answers)
	}
	return out
}

// finish selects the cut of residual rank want inside the gathered
// brackets exactly and returns it per bracket, in res order. inside is
// false when the brackets cannot be shown to hold the cut: want falls
// outside them, or the cut touches an open end — the element next to it
// stands for everything beyond, which nothing has compared.
func finish[T any](c elem.Codec[T], res []residual[T], want int64) (cuts []int64, inside bool) {
	// Sequence order for the in-memory selection is the total order's
	// tie-break: (sequence, position).
	order := make([]int, len(res))
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := res[order[a]], res[order[b]]
		if x.id != y.id {
			return x.id < y.id
		}
		return x.pos < y.pos
	})
	seqs := make([][]T, len(res))
	var mass int64
	for k, at := range order {
		seqs[k] = res[at].vals
		mass += int64(len(seqs[k]))
	}
	if want < 0 || want > mass {
		return nil, false
	}
	cuts, inside = make([]int64, len(res)), true
	for k, cut := range mselect.Select[T](c, mselect.SliceAccessor[T](seqs), want) {
		x := res[order[k]]
		if (cut == 0 && x.openLo) || (cut == int64(len(x.vals)) && x.openHi) {
			inside = false
		}
		cuts[order[k]] = cut
	}
	return cuts, inside
}
