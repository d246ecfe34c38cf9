package core

import (
	"fmt"

	"demsort/internal/bufpool"
	"demsort/internal/cluster"
	"demsort/internal/elem"
)

// streamSeg is one contiguous piece of a (sender → receiver) data
// stream: elements [lo, hi) of the sender's local segment of run r.
// Streams are assembled run-major ("consuming all the participating
// data of run i before switching to run i+1", §IV-C).
type streamSeg struct {
	run    int
	lo, hi int64 // local positions within the sender's segment (send side)
}

// exchange is phase 2b, the external all-to-all (§IV-C): every PE
// sends each other PE the parts of its run segments that belong there
// under the splitters, in k memory-sized sub-operations. Data destined
// for the PE itself is relabelled in place — whole blocks move with
// zero I/O, which is why the all-to-all is nearly free for random
// inputs (Figure 5). The result is, per run, this PE's sorted
// destination range as a local file.
func exchange[T any](c elem.Codec[T], n *cluster.Node, cfg *Config, d derived, meta *runsMeta[T], locals []localRun[T], split [][]int64) ([]File, int, error) {
	n.SetPhase(PhaseExchange)
	me := n.Rank
	r := len(locals)
	sz := c.Size()
	bElem := int64(d.BElem)
	// Durable mode keeps the run blocks intact so a resumed fleet can
	// re-run the exchange from the run-formation checkpoint: fully-sent
	// blocks are not freed and kept extents never take ownership (the
	// merge would recycle owned blocks). The price is that the sort is
	// no longer in-place on disk.
	durable := cfg.Checkpoint.Dir != ""

	// ----- Plan -----
	// Send streams: for dest q, the run-major list of my segment
	// pieces that belong to q (excluding q == me, which is kept).
	sendSegs := make([][]streamSeg, n.P)
	sendTotal := make([]int64, n.P)
	// Kept ranges per run (local positions within my segment).
	keptLo := make([]int64, r)
	keptHi := make([]int64, r)
	for ri := 0; ri < r; ri++ {
		segStart := locals[ri].segStart
		segEnd := segStart + locals[ri].segLen
		for q := 0; q < n.P; q++ {
			lo := max(split[q][ri], segStart)
			hi := min(split[q+1][ri], segEnd)
			if lo >= hi {
				if q == me {
					keptLo[ri], keptHi[ri] = 0, 0
				}
				continue
			}
			if q == me {
				keptLo[ri], keptHi[ri] = lo-segStart, hi-segStart
				continue
			}
			sendSegs[q] = append(sendSegs[q], streamSeg{run: ri, lo: lo - segStart, hi: hi - segStart})
			sendTotal[q] += hi - lo
		}
	}
	// Receive streams: from src p, the run-major piece lengths.
	recvSegs := make([][]streamSeg, n.P)
	recvTotal := make([]int64, n.P)
	for p := 0; p < n.P; p++ {
		if p == me {
			continue
		}
		for ri := 0; ri < r; ri++ {
			segStart := meta.segStarts[ri][p]
			segEnd := segStart + meta.segLens[ri][p]
			lo := max(split[me][ri], segStart)
			hi := min(split[me+1][ri], segEnd)
			if lo < hi {
				recvSegs[p] = append(recvSegs[p], streamSeg{run: ri, lo: 0, hi: hi - lo})
				recvTotal[p] += hi - lo
			}
		}
	}

	// Sub-operation count k from the memory budget: each sub-operation
	// stages at most quota elements on each side.
	var sendSum, recvSum int64
	for q := 0; q < n.P; q++ {
		sendSum += sendTotal[q]
		recvSum += recvTotal[q]
	}
	myMove := max(sendSum, recvSum)
	maxMove := n.AllReduceInt64(myMove, "max")
	quota := int64(1) << 62
	if cfg.MemElems > 0 {
		quota = cfg.MemElems / 4
	}
	k := max(int((maxMove+quota-1)/quota), 1)

	// In-place block recycling: per (run, block), how many elements
	// will be sent away; blocks with no kept overlap are freed once
	// fully consumed.
	sendLeft := make([][]int32, r)
	keptTouch := make([][]bool, r)
	for ri := 0; ri < r; ri++ {
		nb := len(locals[ri].file.Extents)
		sendLeft[ri] = make([]int32, nb)
		keptTouch[ri] = make([]bool, nb)
		segLen := locals[ri].segLen
		for b := 0; b < nb; b++ {
			bLo := int64(b) * bElem
			bHi := min(bLo+bElem, segLen)
			kOv := max(0, min(keptHi[ri], bHi)-max(keptLo[ri], bLo))
			sendLeft[ri][b] = int32(bHi - bLo - kOv)
			keptTouch[ri][b] = kOv > 0
		}
	}

	// Per-(run, src) receive writers; resumed/suspended around
	// sub-operations so only actively-filled partial blocks occupy
	// memory — the flush/reload is the paper's "partially filled
	// blocks" overhead (temporary disk overhead R·P′ blocks). Indexed by
	// source rank, not keyed: the flushes below must be issued in one
	// order on every run of the program, or the modelled I/O time (a
	// float sum per PE, Fig. 3) moves in its last digit.
	writers := make([][]*writer[T], r)
	for ri := range writers {
		writers[ri] = make([]*writer[T], n.P)
	}

	// One-block read cache for assembling send windows (adjacent
	// windows share boundary blocks).
	type cacheKey struct {
		run int
		blk int64
	}
	lastKey := cacheKey{-1, -1}
	var lastVals []T // reused decode buffer; valid until the next readBlock
	readBlock := func(ri int, blk int64) []T {
		key := cacheKey{ri, blk}
		if key == lastKey {
			return lastVals
		}
		e := locals[ri].file.Extents[blk]
		raw := bufpool.Get(e.Len * sz)
		n.Vol.ReadWait(e.ID, raw)
		lastKey = key
		lastVals = elem.AppendDecode(c, lastVals[:0], raw, e.Len)
		bufpool.Put(raw)
		return lastVals
	}

	// The sub-operations run as one windowed pipeline (Node.A2ARounds):
	// with a window of 2, sub-op s+1's send windows are read off disk
	// and encoded while sub-op s is still on the wire, so encode and
	// transfer overlap (§IV-E). A collected sub-op's sends are written
	// (cluster.A2AStream), so at most window staged sends are alive
	// beside the receives being consumed: the reservation is one quota
	// for each, and buildSend charges nothing more.
	budget := int64(n.A2AWindow(k)+1) * quota
	if cfg.MemElems > 0 {
		n.Mem.MustAcquire(budget)
		defer n.Mem.Release(budget)
	}

	// ----- Execute k sub-operations -----
	// buildSend assembles sub-op s's send vectors (sequentially, in
	// sub-op order: it advances the per-block send accounting and the
	// read cache); process consumes sub-op s's receives. Any window runs
	// exactly the same calls in the same per-PE order, so the output is
	// byte-identical.
	buildSend := func(s int) ([][]byte, int64) {
		send := make([][]byte, n.P)
		for q := 0; q < n.P; q++ {
			if q == me || sendTotal[q] == 0 {
				continue
			}
			wLo := sendTotal[q] * int64(s) / int64(k)
			wHi := sendTotal[q] * int64(s+1) / int64(k)
			if wLo >= wHi {
				continue
			}
			buf := bufpool.Get(int(wHi-wLo) * sz)[:0]
			pos := int64(0)
			for _, seg := range sendSegs[q] {
				segN := seg.hi - seg.lo
				a := max(wLo-pos, 0)
				b := min(wHi-pos, segN)
				pos += segN
				if a >= b {
					continue
				}
				// Read the covering blocks of [seg.lo+a, seg.lo+b).
				from, to := seg.lo+a, seg.lo+b
				for blk := from / bElem; blk*bElem < to; blk++ {
					vals := readBlock(seg.run, blk)
					bLo := blk * bElem
					l := max(from, bLo) - bLo
					h := min(to, bLo+int64(len(vals))) - bLo
					buf = elem.AppendEncode(c, buf, vals[l:h])
					sendLeft[seg.run][blk] -= int32(h - l)
					if sendLeft[seg.run][blk] == 0 && !keptTouch[seg.run][blk] && !durable {
						ext := locals[seg.run].file.Extents[blk]
						n.Vol.Free(ext.ID)
						if key := (cacheKey{seg.run, blk}); key == lastKey {
							lastKey = cacheKey{-1, -1}
						}
					}
				}
			}
			send[q] = buf
			n.AddCPU(cfg.Model.ScanCPU((wHi - wLo)))
		}
		return send, 0
	}
	var decScratch []T // reused staging buffer for received pieces
	process := func(s int, recv [][]byte) error {
		for p := 0; p < n.P; p++ {
			if p == me || len(recv[p]) == 0 {
				continue
			}
			wLo := recvTotal[p] * int64(s) / int64(k)
			wHi := recvTotal[p] * int64(s+1) / int64(k)
			if int64(len(recv[p])/sz) != wHi-wLo {
				return fmt.Errorf("core: PE %d sub-op %d: got %d elements from %d, want %d",
					me, s, len(recv[p])/sz, p, wHi-wLo)
			}
			data := recv[p]
			pos := int64(0)
			off := int64(0)
			for _, seg := range recvSegs[p] {
				segN := seg.hi - seg.lo
				a := max(wLo-pos, 0)
				b := min(wHi-pos, segN)
				pos += segN
				if a >= b {
					continue
				}
				w := writers[seg.run][p]
				if w == nil {
					w = newWriter(c, n.Vol)
					writers[seg.run][p] = w
				}
				w.resume()
				cnt := int(b - a)
				decScratch = elem.AppendDecode(c, decScratch[:0], data[off*int64(sz):(off+int64(cnt))*int64(sz)], cnt)
				w.addSlice(decScratch)
				off += int64(cnt)
			}
			n.AddCPU(cfg.Model.ScanCPU(wHi - wLo))
		}
		cluster.RecycleRecv(recv)
		// Sub-operation boundary: flush all partial receive blocks.
		for ri := range writers {
			for _, w := range writers[ri] {
				if w != nil {
					w.suspend()
				}
			}
		}
		return nil
	}
	if err := n.A2ARounds(k, buildSend, process); err != nil {
		return nil, 0, err
	}

	// ----- Assemble per-run output files -----
	out := make([]File, r)
	for ri := 0; ri < r; ri++ {
		var f File
		appendRecv := func(p int) {
			if w := writers[ri][p]; w != nil {
				rf := w.finish()
				for _, e := range rf.Extents {
					f.Append(e)
				}
			}
		}
		for p := 0; p < me; p++ {
			appendRecv(p)
		}
		// Kept range: relabel the covering extents in place, trimmed at
		// the boundaries. Blocks fully inside the kept range transfer
		// ownership; boundary blocks shared with sent data are not
		// freeable (the bounded space overhead of in-place operation).
		lo, hi := keptLo[ri], keptHi[ri]
		for blk := lo / bElem; blk*bElem < hi; blk++ {
			ext := locals[ri].file.Extents[blk]
			bLo := blk * bElem
			l := max(lo, bLo) - bLo
			h := min(hi, bLo+int64(ext.Len)) - bLo
			if l >= h {
				continue
			}
			full := l == 0 && h == int64(ext.Len)
			f.Append(Extent{ID: ext.ID, Off: int(l), Len: int(h - l), Own: full && !durable})
		}
		for p := me + 1; p < n.P; p++ {
			appendRecv(p)
		}
		want := split[me+1][ri] - split[me][ri]
		if f.N != want {
			return nil, 0, fmt.Errorf("core: run %d: PE %d assembled %d elements, want %d", ri, me, f.N, want)
		}
		out[ri] = f
	}
	n.Vol.Drain()
	n.Barrier()
	return out, k, nil
}
