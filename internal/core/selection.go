package core

import (
	"encoding/binary"

	"demsort/internal/bufpool"
	"demsort/internal/cluster"
	"demsort/internal/dselect"
	"demsort/internal/elem"
	"demsort/internal/job"
	"demsort/internal/mselect"
)

// runsMeta is the per-PE view of the global run directory after phase
// 1: every run's length (which places every segment of it) and, for
// selection, its full in-memory sample (every K-th run position),
// gathered once.
type runsMeta[T any] struct {
	runLens []int64 // length of each run
	samples []mselect.Sample[T]
	totalN  int64
}

// localRunsMeta is the run directory without its sample: the run
// lengths every PE knows from its own runs. It releases the local sample
// shares — encoded by gatherRunsMeta, or unread on a resume from the
// selection commit, where nothing reads the sample.
func localRunsMeta[T any](n *cluster.Node, locals []localRun[T]) *runsMeta[T] {
	m := &runsMeta[T]{runLens: make([]int64, len(locals))}
	for ri := range locals {
		lr := &locals[ri]
		m.runLens[ri] = lr.runLen
		m.totalN += lr.runLen
		n.Mem.Release(int64(len(lr.sample)))
		lr.sample = nil
	}
	return m
}

// gatherRunsMeta builds the run directory on every PE, fresh or resumed
// from the run-formation commit: the run lengths and the samples,
// gathered so every PE can bootstrap selections locally. Only the
// samples cross the wire; a share's size follows from its segment
// (sampleCount). The sample lives in main memory, as in the paper ("In
// our implementation, we keep the sample in main memory"); the local
// samples are released once encoded, the gathered one is charged until
// releaseSamples.
func gatherRunsMeta[T any](c elem.Codec[T], n *cluster.Node, k int64, locals []localRun[T]) *runsMeta[T] {
	var buf []byte
	for _, lr := range locals {
		buf = elem.AppendEncode(c, buf, lr.sample)
	}
	m := localRunsMeta(n, locals)
	all := n.AllGather(buf)

	m.samples = make([]mselect.Sample[T], len(locals))
	offs := make([]int, n.P) // decode through offsets: all may be shared between PEs
	for ri, runLen := range m.runLens {
		var sample []T
		b := job.RankBounds(runLen, n.P)
		for pe := range n.P {
			cnt := sampleCount(b[pe], b[pe+1], k)
			sample = elem.AppendDecode(c, sample, all[pe][offs[pe]:], cnt)
			offs[pe] += cnt * c.Size()
		}
		m.samples[ri] = mselect.Sample[T]{K: k, Vals: sample}
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
	pl     *job.Plan
	meta   *runsMeta[T]
	locals []localRun[T]

	cache    map[blockKey]cachedBlock[T]
	cacheSeq []blockKey // FIFO eviction order, at most pl.CacheBlocks
}

// cachedBlock is one cached block: its pooled read buffer and a view of
// it, valid until the buffer goes back to the pool at eviction or when
// the selection ends (release).
type cachedBlock[T any] struct {
	raw  []byte
	vals []T
}

func (a *runPieces[T]) Pieces() []dselect.Piece {
	pcs := make([]dselect.Piece, len(a.locals))
	for ri, lr := range a.locals {
		pcs[ri] = dselect.Piece{ID: ri, Start: lr.segStart, Len: lr.segLen, Stride: a.pl.K}
	}
	return pcs
}

func (a *runPieces[T]) At(run int, i int64) T {
	if g := a.locals[run].segStart + i; g%a.pl.K == 0 {
		return a.meta.samples[run].Vals[g/a.pl.K]
	}
	bElem := int64(a.pl.BElem)
	key := blockKey{run: run, blk: i / bElem}
	blk, ok := a.cache[key]
	if !ok {
		e := a.locals[run].file.Extents[key.blk]
		blk.raw = bufpool.Get(e.Len * a.c.Size())
		a.n.Vol.ReadWait(e.ID, blk.raw)
		blk.vals = elem.View(a.c, blk.raw)
		if len(a.cacheSeq) >= a.pl.CacheBlocks {
			bufpool.Put(a.cache[a.cacheSeq[0]].raw)
			delete(a.cache, a.cacheSeq[0])
			a.cacheSeq = a.cacheSeq[1:]
		} else {
			a.n.Mem.MustAcquire(bElem)
		}
		a.cache[key] = blk
		a.cacheSeq = append(a.cacheSeq, key)
	}
	return blk.vals[i-key.blk*bElem]
}

// release returns the cached blocks' buffers to the pool and their
// charge to the budget.
func (a *runPieces[T]) release() {
	for _, key := range a.cacheSeq {
		bufpool.Put(a.cache[key].raw)
	}
	a.n.Mem.Release(int64(len(a.cacheSeq)) * int64(a.pl.BElem))
}

// closeTails returns each rank's run brackets for dselect.Select, first
// closing (in place) those the sample cannot place. A run's last cell
// holds no sample, so a bracket reaching the run's end may lie wholly
// left of the cut, as every run left of it does on key-band runs. The PE
// holding that end compares the run's last element with the rank's low
// sample once: ordered before it, the whole run is left of the cut.
func (a *runPieces[T]) closeTails(brackets []mselect.Bracket) [][]mselect.Interval {
	ord := mselect.OrderOf(a.c)
	out := make([][]mselect.Interval, len(brackets))
	for i, br := range brackets {
		out[i] = br.Seqs
		if br.Low.Seq < 0 {
			continue
		}
		low := a.meta.samples[br.Low.Seq].Vals[br.Low.At/a.pl.K]
		for ri, lr := range a.locals {
			b := &br.Seqs[ri]
			if b.Lo < b.Hi && b.Hi == lr.runLen && lr.segLen > 0 && lr.segStart+lr.segLen == lr.runLen &&
				ord.Less(a.At(ri, lr.segLen-1), ri, lr.runLen-1, low, br.Low.Seq, br.Low.At) {
				b.Lo = b.Hi
			}
		}
	}
	return out
}

// selectionHook lets this package's tests stand in the middle of a
// sort: splitters sees the exact matrix next to the rank's runs
// ([]localRun[T]) it splits, the sample distance K and the brackets the
// selection started from. It is nil outside tests.
var selectionHook struct {
	splitters func(n *cluster.Node, runs any, k int64, brackets []mselect.Bracket, split [][]int64)
}

// multiwaySelection is phase 2a: the exact splitter positions of the
// ranks i·N/P in every run, all P−1 at once. The in-memory sample
// brackets every cut (§IV-A: "this sample is used to find initial values
// for the approximate splitters"): mselect.SampleBrackets proves a range
// of each run that holds it, at most 2·R·K elements per rank in all.
// Owner-computes bisection (dselect.Select) makes them exact: every PE
// counts pivots against its own on-disk segments, and pivots, counts and
// one small residual gather per rank are all that cross the wire, in
// O(log(R·K)) rounds whatever the block size. The returned matrix
// (identical on every PE) has P+1 rows: splitters[i][r] is the first
// run-r position belonging to PE i.
func multiwaySelection[T any](c elem.Codec[T], n *cluster.Node, pl *job.Plan, meta *runsMeta[T], locals []localRun[T]) [][]int64 {
	n.SetPhase(PhaseSelection)
	r := len(meta.runLens)
	ranks := job.RankBounds(meta.totalN, n.P)[1:n.P]
	brackets := mselect.SampleBrackets(c, meta.samples, meta.runLens, ranks)
	acc := &runPieces[T]{c: c, n: n, pl: pl, meta: meta, locals: locals, cache: map[blockKey]cachedBlock[T]{}}
	defer acc.release()
	cuts := dselect.Select[T](c, n, acc, ranks, acc.closeTails(brackets), pl.Gather)

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
		selectionHook.splitters(n, locals, pl.K, brackets, split)
	}
	return split
}
