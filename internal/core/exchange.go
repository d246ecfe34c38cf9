package core

import (
	"fmt"

	"demsort/internal/blockio"
	"demsort/internal/bufpool"
	"demsort/internal/cluster"
	"demsort/internal/elem"
	"demsort/internal/job"
)

// piece is one run-major stretch of a (sender → receiver) stream:
// elements [lo, hi) of the sender's segment of run. Streams are
// assembled run-major ("consuming all the participating data of run i
// before switching to run i+1", §IV-C).
type piece struct {
	run    int
	lo, hi int64
}

// window returns the part of stream ps that sub-operation s of k moves —
// its elements [n·s/k, n·(s+1)/k) of n — and that part's length (so
// window(ps, 0, 1) is the whole stream). The sender cuts its send streams
// and the receiver its receive streams with it, so both agree on every
// sub-operation's content.
func window(ps []piece, s, k int) ([]piece, int64) {
	var n int64
	for _, p := range ps {
		n += p.hi - p.lo
	}
	wLo, wHi := n*int64(s)/int64(k), n*int64(s+1)/int64(k)
	var out []piece
	pos := int64(0)
	for _, p := range ps {
		a, b := max(wLo-pos, 0), min(wHi-pos, p.hi-p.lo)
		pos += p.hi - p.lo
		if a < b {
			out = append(out, piece{p.run, p.lo + a, p.lo + b})
		}
	}
	return out, wHi - wLo
}

// exchanger is one PE's external all-to-all, as named steps: plan (who
// sends what to whom), subOps (how many sub-operations), recycling (which
// run blocks can be freed), build and process (one sub-operation's sends
// and receives), assemble (the per-run output files). Every I/O they
// issue comes in one order on every run of the program, or the modelled
// I/O time (a float sum per PE, Fig. 3) would move in its last digit.
type exchanger[T any] struct {
	c      elem.Codec[T]
	n      *cluster.Node
	cfg    *Config
	bElem  int64
	stage  int // the writers' stage in blocks (Plan.WriteStage)
	meta   *runsMeta[T]
	locals []localRun[T]
	split  [][]int64
	// Durable mode keeps the run blocks intact so a resumed fleet can
	// re-run the exchange from the run-formation checkpoint: fully-sent
	// blocks are not freed and kept extents never take ownership (the
	// merge would recycle owned blocks). The price is that the sort is
	// no longer in-place on disk.
	durable bool

	sends, recvs [][]piece // per peer: pieces(me, q) and pieces(p, me); nil for me
	kept         []piece   // per run: pieces(me, me), the zero piece if none
	k            int

	sendLeft  [][]int32          // per (run, block): elements still to send away
	keptTouch [][]bool           // per (run, block): overlaps the kept range
	writers   [][]*job.Writer[T] // per (run, source rank): indexed, so flushes go in rank order

	cached blockKey // readBlock's one-block cache, encoded in raw
	raw    []byte
}

// exchange is phase 2b, the external all-to-all (§IV-C): every PE
// sends each other PE the parts of its run segments that belong there
// under the splitters, in k memory-sized sub-operations. Data destined
// for the PE itself is relabelled in place — whole blocks move with
// zero I/O, which is why the all-to-all is nearly free for random
// inputs (Figure 5). The result is, per run, this PE's sorted
// destination range as a local file.
func exchange[T any](c elem.Codec[T], n *cluster.Node, cfg *Config, pl *job.Plan, meta *runsMeta[T], locals []localRun[T], split [][]int64) ([]job.File, int, error) {
	n.SetPhase(PhaseExchange)
	x := &exchanger[T]{c: c, n: n, cfg: cfg, bElem: int64(pl.BElem), stage: pl.WriteStage, meta: meta, locals: locals, split: split,
		durable: cfg.Checkpoint.Dir != "", cached: blockKey{-1, -1}, raw: make([]byte, pl.BElem*c.Size())}
	x.plan()
	x.k = x.subOps(pl.ExchangeQuota)
	x.recycling()

	// The sub-operations run as one windowed pipeline (Node.A2ARounds):
	// with a window of 2, sub-op s+1's sends are read and encoded while
	// sub-op s is on the wire (§IV-E). A collected sub-op's sends are
	// written (cluster.A2AStream), so the reservation is one quota for
	// each of window sends and for the receives. Any window makes the
	// same calls in the same order. The one writer stage live at a time
	// (process) adds its blocks.
	budget := int64(n.A2AWindow(x.k)+1)*pl.ExchangeQuota + int64(pl.WriteStage*pl.BElem)
	n.Mem.MustAcquire(budget)
	defer n.Mem.Release(budget)
	if err := n.A2ARounds(x.k, x.build, x.process); err != nil {
		return nil, 0, err
	}
	out, err := x.assemble()
	if err != nil {
		return nil, 0, err
	}
	n.Vol.Drain()
	n.Barrier()
	return out, x.k, nil
}

// pieces returns the run-major stretches of PE from's run segments that
// belong to PE to under the splitters, in positions local to from's
// segments: sends are pieces(me, q), receives pieces(p, me), the kept
// range pieces(me, me).
func (x *exchanger[T]) pieces(from, to int) []piece {
	var out []piece
	for ri, runLen := range x.meta.runLens {
		start, end := segment(runLen, from, x.n.P)
		lo, hi := max(x.split[to][ri], start), min(x.split[to+1][ri], end)
		if lo < hi {
			out = append(out, piece{ri, lo - start, hi - start})
		}
	}
	return out
}

// plan derives this PE's streams from the splitter matrix and the run
// directory.
func (x *exchanger[T]) plan() {
	me, p := x.n.Rank, x.n.P
	x.sends, x.recvs = make([][]piece, p), make([][]piece, p)
	for q := range p {
		if q != me {
			x.sends[q], x.recvs[q] = x.pieces(me, q), x.pieces(q, me)
		}
	}
	x.kept = make([]piece, len(x.locals))
	for _, kp := range x.pieces(me, me) {
		x.kept[kp.run] = kp
	}
}

// subOps returns the sub-operation count k from the memory budget: a
// sub-operation stages at most quota elements on either side of the PE
// that moves the most.
func (x *exchanger[T]) subOps(quota int64) int {
	var sent, recvd int64
	for q := range x.sends {
		_, ns := window(x.sends[q], 0, 1)
		_, nr := window(x.recvs[q], 0, 1)
		sent, recvd = sent+ns, recvd+nr
	}
	maxMove := x.n.AllReduceInt64(max(sent, recvd), "max")
	return max(int((maxMove+quota-1)/quota), 1)
}

// recycling sets up in-place block recycling — per (run, block), how
// many elements will be sent away; blocks with no kept overlap are freed
// once fully consumed — and the empty per-(run, source) writer table.
func (x *exchanger[T]) recycling() {
	r := len(x.locals)
	x.sendLeft, x.keptTouch, x.writers = make([][]int32, r), make([][]bool, r), make([][]*job.Writer[T], r)
	for ri, lr := range x.locals {
		nb := len(lr.file.Extents)
		x.sendLeft[ri], x.keptTouch[ri] = make([]int32, nb), make([]bool, nb)
		kp := x.kept[ri]
		for b := range nb {
			bLo := int64(b) * x.bElem
			bHi := min(bLo+x.bElem, lr.segLen)
			kOv := max(0, min(kp.hi, bHi)-max(kp.lo, bLo))
			x.sendLeft[ri][b] = int32(bHi - bLo - kOv)
			x.keptTouch[ri][b] = kOv > 0
		}
		x.writers[ri] = make([]*job.Writer[T], x.n.P)
	}
}

// readBlock returns block blk of run ri's segment, encoded, through a
// one-block cache (adjacent windows share boundary blocks). The slice
// is valid until the next call.
func (x *exchanger[T]) readBlock(ri int, blk int64) []byte {
	e := x.locals[ri].file.Extents[blk]
	raw := x.raw[:e.Len*x.c.Size()]
	if key := (blockKey{ri, blk}); key != x.cached {
		x.n.Vol.ReadWait(e.ID, raw)
		x.cached = key
	}
	return raw
}

// blocks calls f for each block of run p.run's segment that piece p
// covers, with the covered part [l, h) in block-relative positions.
func (x *exchanger[T]) blocks(p piece, f func(blk int64, e blockio.Extent, l, h int64)) {
	for blk := p.lo / x.bElem; blk*x.bElem < p.hi; blk++ {
		e := x.locals[p.run].file.Extents[blk]
		bLo := blk * x.bElem
		f(blk, e, max(p.lo, bLo)-bLo, min(p.hi, bLo+int64(e.Len))-bLo)
	}
}

// build assembles sub-operation s's send vectors. Calls come in
// sub-operation order: each advances the per-block send accounting and
// the read cache.
func (x *exchanger[T]) build(s int) [][]byte {
	send := make([][]byte, x.n.P)
	for q, ps := range x.sends {
		win, cnt := window(ps, s, x.k)
		if cnt == 0 {
			continue
		}
		sz := int64(x.c.Size())
		buf := bufpool.Get(int(cnt * sz))[:0]
		for _, p := range win {
			x.blocks(p, func(blk int64, e blockio.Extent, l, h int64) {
				buf = append(buf, x.readBlock(p.run, blk)[l*sz:h*sz]...)
				x.sendLeft[p.run][blk] -= int32(h - l)
				if x.sendLeft[p.run][blk] == 0 && !x.keptTouch[p.run][blk] && !x.durable {
					x.n.Vol.Free(e.ID)
					if x.cached == (blockKey{p.run, blk}) {
						x.cached = blockKey{-1, -1}
					}
				}
			})
		}
		send[q] = buf
		x.n.AddCPU(x.cfg.Model.ScanCPU(cnt))
	}
	return send
}

// process consumes sub-operation s's receives into the per-(run,
// source) writers. A sub-operation touches each writer at most once (a
// stream's window holds one piece per run), so each is resumed for its
// piece — a new one needs no Resume — and suspended right after: one
// writer tail is live at a time, and every partial receive block is
// written out at the sub-operation boundary — the flush/reload is the
// paper's "partially filled blocks" overhead (temporary disk overhead
// R·P′ blocks).
func (x *exchanger[T]) process(s int, recv [][]byte) error {
	sz := x.c.Size()
	for p, ps := range x.recvs {
		win, cnt := window(ps, s, x.k)
		if int64(len(recv[p])/sz) != cnt {
			return fmt.Errorf("core: PE %d sub-op %d: got %d elements from %d, want %d",
				x.n.Rank, s, len(recv[p])/sz, p, cnt)
		}
		data := recv[p]
		for _, pc := range win {
			w := x.writers[pc.run][p]
			if w == nil {
				w = job.NewStagedWriter(x.c, x.n.Vol, x.stage)
				x.writers[pc.run][p] = w
			} else {
				w.Resume()
			}
			m := int(pc.hi-pc.lo) * sz
			w.AddBytes(data[:m])
			w.Suspend()
			data = data[m:]
		}
		x.n.AddCPU(x.cfg.Model.ScanCPU(cnt))
	}
	cluster.RecycleRecv(recv)
	return nil
}

// assemble returns each run's output file — what lower ranks sent, the
// kept range, what higher ranks sent: this PE's sorted destination
// range of the run. The kept range is relabelled in place: its covering
// extents, trimmed at the boundaries. Blocks fully inside it transfer
// ownership; boundary blocks shared with sent data are not freeable (the
// bounded space overhead of in-place operation).
func (x *exchanger[T]) assemble() ([]job.File, error) {
	me := x.n.Rank
	out := make([]job.File, len(x.locals))
	for ri := range out {
		f := &out[ri]
		for p, w := range x.writers[ri] {
			if p == me {
				x.blocks(x.kept[ri], func(_ int64, e blockio.Extent, l, h int64) {
					f.Append(blockio.Extent{ID: e.ID, Off: int(l), Len: int(h - l), Own: l == 0 && h == int64(e.Len) && !x.durable})
				})
			} else if w != nil {
				for _, e := range w.Finish().Extents {
					f.Append(e)
				}
			}
		}
		if want := x.split[me+1][ri] - x.split[me][ri]; f.N != want {
			return nil, fmt.Errorf("core: run %d: PE %d assembled %d elements, want %d", ri, me, f.N, want)
		}
	}
	return out, nil
}
