package core

import (
	"encoding/binary"
	"math"

	"demsort/internal/bufpool"
	"demsort/internal/cluster"
	"demsort/internal/dselect"
	"demsort/internal/elem"
	"demsort/internal/job"
	"demsort/internal/mselect"
)

// runsMeta is the per-PE view of the global run directory after phase
// 1: for every run, the segment boundaries of all PEs and the full
// in-memory sample (every K-th run position), gathered once.
type runsMeta[T any] struct {
	runLens   []int64   // length of each run
	segStarts [][]int64 // [run][pe] global start of pe's segment
	segLens   [][]int64 // [run][pe]
	samples   []mselect.Sample[T]
	totalN    int64
}

// gatherRunsMeta exchanges segment lengths and samples so every PE can
// bootstrap selections locally. The sample lives in main memory, as in
// the paper ("In our implementation, we keep the sample in main
// memory").
func gatherRunsMeta[T any](c elem.Codec[T], n *cluster.Node, d derived, locals []localRun[T]) *runsMeta[T] {
	r := len(locals)
	sz := c.Size()
	// Wire format: for each run, 8B segLen, 4B sample count, samples.
	var buf []byte
	for _, lr := range locals {
		var tmp [12]byte
		binary.LittleEndian.PutUint64(tmp[:8], uint64(lr.segLen))
		binary.LittleEndian.PutUint32(tmp[8:], uint32(len(lr.sample)))
		buf = append(buf, tmp[:]...)
		buf = elem.AppendEncode(c, buf, lr.sample)
	}
	all := n.AllGather(buf)

	m := &runsMeta[T]{
		runLens:   make([]int64, r),
		segStarts: make([][]int64, r),
		segLens:   make([][]int64, r),
		samples:   make([]mselect.Sample[T], r),
	}
	offs := make([]int, n.P)
	for ri := 0; ri < r; ri++ {
		m.segStarts[ri] = make([]int64, n.P)
		m.segLens[ri] = make([]int64, n.P)
		var pos int64
		var sample []T
		for pe := 0; pe < n.P; pe++ {
			b := all[pe][offs[pe]:]
			segLen := int64(binary.LittleEndian.Uint64(b[:8]))
			cnt := int(binary.LittleEndian.Uint32(b[8:12]))
			sample = elem.AppendDecode(c, sample, b[12:], cnt)
			offs[pe] += 12 + cnt*sz
			m.segStarts[ri][pe] = pos
			m.segLens[ri][pe] = segLen
			pos += segLen
		}
		m.runLens[ri] = pos
		m.samples[ri] = mselect.Sample[T]{K: d.sampleK, Vals: sample}
		m.totalN += pos
		n.Mem.MustAcquire(int64(len(sample)))
	}
	return m
}

// blockKey names one cached block: block blk of this PE's segment of
// run.
type blockKey struct {
	run int
	blk int64
}

// runPieces presents this PE's run segments to the selection engine as
// pieces of the R globally sorted runs (dselect.Local). Positions on
// the sample grid are served from the in-memory sample; everything else
// reads the local block containing the position through a cache (§IV-A:
// "we cache the most recently accessed disk blocks") — blocks are only
// ever read by the PE that owns them. The cache is all the selection
// keeps of the runs, charged to the budget block by block: a bracket's
// ends and middle are looked at every round, and at large blocks its
// whole search stays within a block or two.
type runPieces[T any] struct {
	c      elem.Codec[T]
	n      *cluster.Node
	d      derived
	meta   *runsMeta[T]
	locals []localRun[T]

	cache    map[blockKey][]T
	cacheSeq []blockKey // FIFO eviction order
	cacheCap int
}

func (a *runPieces[T]) Pieces() []dselect.Piece {
	pcs := make([]dselect.Piece, len(a.locals))
	for ri, lr := range a.locals {
		pcs[ri] = dselect.Piece{ID: ri, Start: lr.segStart, Len: lr.segLen, SeqLen: a.meta.runLens[ri], Stride: a.d.sampleK}
	}
	return pcs
}

func (a *runPieces[T]) At(run int, i int64) T {
	if g := a.locals[run].segStart + i; g%a.d.sampleK == 0 {
		return a.meta.samples[run].Vals[g/a.d.sampleK]
	}
	bElem := int64(a.d.BElem)
	key := blockKey{run: run, blk: i / bElem}
	vals, ok := a.cache[key]
	if !ok {
		e := a.locals[run].file.Extents[key.blk]
		raw := bufpool.Get(e.Len * a.c.Size())
		a.n.Vol.ReadWait(e.ID, raw)
		vals = elem.DecodeSlice(a.c, raw, e.Len)
		bufpool.Put(raw)
		if len(a.cacheSeq) >= a.cacheCap {
			delete(a.cache, a.cacheSeq[0])
			a.cacheSeq = a.cacheSeq[1:]
		} else {
			a.n.Mem.MustAcquire(bElem)
		}
		a.cache[key] = vals
		a.cacheSeq = append(a.cacheSeq, key)
	}
	return vals[i-key.blk*bElem]
}

// selectionHook lets this package's tests stand in the middle of a
// sort: estimates sees (and may perturb) every rank's sample estimates
// before they are refined, splitters the exact matrix next to the
// rank's runs ([]localRun[T]) it splits. Both are nil outside tests.
var selectionHook struct {
	estimates func(est [][]int64, k int64)
	splitters func(n *cluster.Node, runs any, split [][]int64)
}

// multiwaySelection is phase 2a: the exact splitter positions of the
// ranks i·N/P in every run, all P−1 at once. The in-memory sample gives
// the estimates (§IV-A: "this sample is used to find initial values for
// the approximate splitters"); owner-computes bisection (dselect.Select)
// makes them exact: every PE counts pivots against its own on-disk
// segments, and pivots, counts and one small residual gather per rank
// are all that cross the wire, in O(log N) rounds whatever the block
// size. The returned matrix (identical on every PE) has P+1 rows:
// splitters[i][r] is the first run-r position belonging to PE i.
func multiwaySelection[T any](c elem.Codec[T], n *cluster.Node, cfg *Config, d derived, meta *runsMeta[T], locals []localRun[T]) [][]int64 {
	n.SetPhase(PhaseSelection)
	r := len(meta.runLens)
	ranks := job.RankBounds(meta.totalN, n.P)[1:n.P]
	est := make([][]int64, len(ranks))
	for i, rank := range ranks {
		est[i] = mselect.SampleCuts(c, meta.samples, meta.runLens, rank)
	}
	if selectionHook.estimates != nil {
		selectionHook.estimates(est, d.sampleK)
	}

	// Start every search within 2·K of the estimate. The worst case is
	// (R+2)·K, but across the test suite's workloads and geometries the
	// error stays below 1.3·K (one skewed table reaches 5·K), and a
	// start the exact counts disprove only costs that rank a second
	// pass from the full range.
	margin := 2 * d.sampleK
	warm := make([][]dselect.Interval, len(est))
	for i := range warm {
		warm[i] = make([]dselect.Interval, r)
		for ri := range warm[i] {
			warm[i][ri] = dselect.Interval{Lo: est[i][ri] - margin, Hi: est[i][ri] + margin}
		}
	}
	// Memory: beside the sample (an eighth of the budget), up to half
	// for cached blocks and an eighth for a gathered residual — which is
	// read from disk, so bisecting stops at a couple of blocks per run.
	acc := &runPieces[T]{c: c, n: n, d: d, meta: meta, locals: locals, cache: map[blockKey][]T{}, cacheCap: math.MaxInt}
	gather := int64(2 * d.BElem * r)
	if cfg.MemElems > 0 {
		acc.cacheCap = max(int(cfg.MemElems/2/int64(d.BElem)), 2)
		gather = min(gather, cfg.MemElems/8)
	}
	defer func() { n.Mem.Release(int64(len(acc.cacheSeq)) * int64(d.BElem)) }()
	cuts := dselect.Select[T](c, n, acc, ranks, warm, gather)

	// Share the splitters: "After communicating the splitter positions
	// ... every PE knows the elements it has to merge." A run's
	// segments are contiguous in PE order, so its splitter is the sum
	// of the PEs' local cuts.
	buf := make([]byte, 0, 8*r*(n.P-1))
	for _, cut := range cuts {
		for _, pos := range cut {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(pos))
		}
	}
	all := n.AllGather(buf)
	split := make([][]int64, n.P+1)
	for i := range split {
		split[i] = make([]int64, r)
	}
	copy(split[n.P], meta.runLens)
	for i := 1; i < n.P; i++ {
		for ri := 0; ri < r; ri++ {
			for _, b := range all {
				split[i][ri] += int64(binary.LittleEndian.Uint64(b[((i-1)*r+ri)*8:]))
			}
		}
	}
	if selectionHook.splitters != nil {
		selectionHook.splitters(n, locals, split)
	}
	return split
}
