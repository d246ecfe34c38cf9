package core

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"

	"demsort/internal/bufpool"
	"demsort/internal/cluster"
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

// fetchKey identifies one remote block probe: block index blk of PE
// owner's segment of run r.
type fetchKey struct {
	run   int
	owner int
	blk   int64
}

// probeAccessor serves mselect element probes against the distributed
// runs: sample positions are free (in memory), everything else reads
// the block containing the position — locally, or from the owner
// through the synchronous request rounds — with an owner-block cache
// (§IV-A: "we cache the most recently accessed disk blocks").
type probeAccessor[T any] struct {
	c      elem.Codec[T]
	n      *cluster.Node
	d      derived
	meta   *runsMeta[T]
	locals []localRun[T]
	// fetch and fetchBatch retrieve remote blocks through the
	// synchronous round loop.
	fetch      func(fetchKey) []T
	fetchBatch func([]fetchKey) [][]T

	cache    map[fetchKey][]T
	cacheSeq []fetchKey
	cacheCap int
	// Counters for tests and reports.
	localReads  int64
	remoteReads int64
	sampleHits  int64
}

func (a *probeAccessor[T]) Seqs() int       { return len(a.meta.runLens) }
func (a *probeAccessor[T]) Len(s int) int64 { return a.meta.runLens[s] }

func (a *probeAccessor[T]) At(s int, i int64) T {
	// Sample positions are free.
	if i%a.d.sampleK == 0 {
		idx := i / a.d.sampleK
		if idx < int64(len(a.meta.samples[s].Vals)) {
			a.sampleHits++
			return a.meta.samples[s].Vals[idx]
		}
	}
	// Locate the owning PE and block.
	pe := sort.Search(a.n.P, func(p int) bool {
		return a.meta.segStarts[s][p]+a.meta.segLens[s][p] > i
	})
	local := i - a.meta.segStarts[s][pe]
	blk := local / int64(a.d.BElem)
	key := fetchKey{run: s, owner: pe, blk: blk}
	vals, ok := a.cache[key]
	if !ok {
		if pe == a.n.Rank {
			vals = a.readLocalBlock(s, blk)
			a.localReads++
		} else {
			vals = a.fetch(key)
			a.remoteReads++
		}
		a.cachePut(key, vals)
	}
	return vals[local-blk*int64(a.d.BElem)]
}

func (a *probeAccessor[T]) readLocalBlock(run int, blk int64) []T {
	e := a.locals[run].file.Extents[blk]
	raw := bufpool.Get(e.Len * a.c.Size())
	a.n.Vol.ReadWait(e.ID, raw)
	vals := elem.DecodeSlice(a.c, raw, e.Len)
	bufpool.Put(raw)
	return vals
}

// prefetchAround fetches, in one batched round, the block containing
// each run's estimated cut position plus its neighbours, warming the
// cache before the selection walk.
func (a *probeAccessor[T]) prefetchAround(cuts []int64) {
	var keys []fetchKey
	seen := map[fetchKey]bool{}
	fetched := 0
	// Center blocks first, then neighbours, and never more than the
	// cache can hold (tight memory budgets shrink the warm-up, not
	// correctness).
	for ring := 0; ring < 2; ring++ {
		for s, cut := range cuts {
			var poss []int64
			if ring == 0 {
				poss = []int64{cut}
			} else {
				poss = []int64{cut - int64(a.d.BElem), cut + int64(a.d.BElem)}
			}
			for _, pos := range poss {
				if pos < 0 || pos >= a.meta.runLens[s] || fetched >= a.cacheCap {
					continue
				}
				pe := sort.Search(a.n.P, func(p int) bool {
					return a.meta.segStarts[s][p]+a.meta.segLens[s][p] > pos
				})
				local := pos - a.meta.segStarts[s][pe]
				key := fetchKey{run: s, owner: pe, blk: local / int64(a.d.BElem)}
				if seen[key] || a.cache[key] != nil {
					continue
				}
				seen[key] = true
				fetched++
				if pe == a.n.Rank {
					a.cachePut(key, a.readLocalBlock(s, key.blk))
					a.localReads++
					continue
				}
				keys = append(keys, key)
			}
		}
	}
	if len(keys) == 0 {
		return
	}
	blocks := a.fetchBatch(keys) // one batched round through the node loop
	for i, k := range keys {
		a.cachePut(k, blocks[i])
		a.remoteReads++
	}
}

func (a *probeAccessor[T]) cachePut(key fetchKey, vals []T) {
	if len(a.cacheSeq) >= a.cacheCap {
		old := a.cacheSeq[0]
		a.cacheSeq = a.cacheSeq[1:]
		delete(a.cache, old)
	}
	a.cache[key] = vals
	a.cacheSeq = append(a.cacheSeq, key)
}

// multiwaySelection is phase 2a: PE i computes the exact splitter
// positions of rank i·N/P in every run, bootstrapped from the sample;
// the handful of disk probes run in synchronous request/serve rounds
// so every PE both refines its own splitters and serves blocks to the
// others. The returned matrix (identical on every PE) has P+1 rows:
// splitters[i][r] is the first run-r position belonging to PE i.
func multiwaySelection[T any](c elem.Codec[T], n *cluster.Node, cfg *Config, d derived, meta *runsMeta[T], locals []localRun[T]) ([][]int64, error) {
	n.SetPhase(PhaseSelection)
	r := len(meta.runLens)
	bounds := job.RankBounds(meta.totalN, n.P)

	reqCh := make(chan []fetchKey)
	resCh := make(chan [][]T)
	doneCh := make(chan []int64, 1)
	// quitCh unblocks the selector goroutine if this PE unwinds with a
	// panic (e.g. a peer-failure abort) while the selector is parked in
	// fetchBatch — otherwise it would leak, pinned to reqCh/resCh.
	quitCh := make(chan struct{})
	defer close(quitCh)

	cacheCap := 6*r + 6
	if cfg.MemElems > 0 {
		if byBudget := int(cfg.MemElems / 4 / int64(d.BElem)); byBudget < cacheCap {
			cacheCap = byBudget
		}
		if cacheCap < 2 {
			cacheCap = 2
		}
	}
	acc := &probeAccessor[T]{
		c:        c,
		n:        n,
		d:        d,
		meta:     meta,
		locals:   locals,
		cache:    map[fetchKey][]T{},
		cacheCap: cacheCap,
	}
	acc.fetchBatch = func(ks []fetchKey) [][]T {
		select {
		case reqCh <- ks:
		case <-quitCh:
			runtime.Goexit()
		}
		select {
		case res := <-resCh:
			return res
		case <-quitCh:
			runtime.Goexit()
		}
		panic("unreachable")
	}
	acc.fetch = func(k fetchKey) []T {
		return acc.fetchBatch([]fetchKey{k})[0]
	}
	n.Mem.MustAcquire(int64(acc.cacheCap) * int64(d.BElem))
	defer n.Mem.Release(int64(acc.cacheCap) * int64(d.BElem))

	active := n.Rank != 0
	if active {
		go func() {
			myRank := bounds[n.Rank]
			lens := make([]int64, r)
			copy(lens, meta.runLens)
			// Bootstrap from the sample (§IV-A: "this sample is used to
			// find initial values for the approximate splitters"),
			// prefetch the blocks around each estimated cut in one
			// batched round, then run the paper's step-halving walk
			// with step size K. The walk only probes near the final
			// positions, so it works out of the warm cache; its fixup
			// stage makes the result exact unconditionally.
			cuts := mselect.SampleCuts(c, meta.samples, lens, myRank)
			acc.prefetchAround(cuts)
			doneCh <- mselect.StepHalving[T](c, acc, myRank, cuts, d.sampleK)
		}()
	}

	var myCuts []int64
	var pending []fetchKey
	done := !active
	awaitSelector := func() {
		select {
		case ks := <-reqCh:
			pending = ks
		case pos := <-doneCh:
			myCuts = pos
			done = true
		}
	}
	if active {
		awaitSelector()
	}
	for {
		flag := int64(0)
		if len(pending) > 0 {
			flag = 1
		}
		if n.AllReduceInt64(flag, "or") == 0 {
			break
		}
		// Request round: a batch of block requests per PE.
		reqs := make([][]byte, n.P)
		for _, k := range pending {
			var b [12]byte
			binary.LittleEndian.PutUint32(b[:4], uint32(k.run))
			binary.LittleEndian.PutUint64(b[4:], uint64(k.blk))
			reqs[k.owner] = append(reqs[k.owner], b[:]...)
		}
		got := n.AllToAllv(reqs)
		// Serve round: read the requested local blocks; replies are
		// length-prefixed because block sizes vary at run tails.
		reps := make([][]byte, n.P)
		var serveRaw []byte // reused serve-side read buffer
		for q := 0; q < n.P; q++ {
			buf := got[q]
			for len(buf) >= 12 {
				run := int(binary.LittleEndian.Uint32(buf[:4]))
				blk := int64(binary.LittleEndian.Uint64(buf[4:12]))
				buf = buf[12:]
				e := locals[run].file.Extents[blk]
				need := e.Len * c.Size()
				if cap(serveRaw) < need {
					bufpool.Put(serveRaw)
					serveRaw = bufpool.Get(need)
				}
				serveRaw = serveRaw[:need]
				n.Vol.ReadWait(e.ID, serveRaw)
				var hdr [4]byte
				binary.LittleEndian.PutUint32(hdr[:], uint32(e.Len))
				reps[q] = append(reps[q], hdr[:]...)
				reps[q] = append(reps[q], serveRaw...)
			}
		}
		bufpool.Put(serveRaw)
		back := n.AllToAllv(reps)
		if len(pending) > 0 {
			// Replies arrive grouped per owner in request order.
			offs := make(map[int]int)
			blocks := make([][]T, len(pending))
			for i, k := range pending {
				buf := back[k.owner][offs[k.owner]:]
				cnt := int(binary.LittleEndian.Uint32(buf[:4]))
				blocks[i] = elem.DecodeSlice(c, buf[4:], cnt)
				offs[k.owner] += 4 + cnt*c.Size()
			}
			resCh <- blocks
			pending = nil
			awaitSelector()
		}
		cluster.RecycleRecv(got)
		cluster.RecycleRecv(back)
	}
	if active && !done {
		return nil, fmt.Errorf("core: selection protocol ended with selector still pending on PE %d", n.Rank)
	}

	// Share the splitters: "After communicating the splitter positions
	// ... every PE knows the elements it has to merge."
	buf := make([]byte, 0, 8*r)
	if active {
		for _, p := range myCuts {
			buf = appendU64(buf, uint64(p))
		}
	}
	all := n.AllGather(buf)
	split := make([][]int64, n.P+1)
	split[0] = make([]int64, r)
	split[n.P] = make([]int64, r)
	copy(split[n.P], meta.runLens)
	for i := 1; i < n.P; i++ {
		split[i] = make([]int64, r)
		for ri := 0; ri < r; ri++ {
			split[i][ri] = int64(binary.LittleEndian.Uint64(all[i][ri*8:]))
		}
	}
	return split, nil
}

func appendU64(b []byte, v uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return append(b, tmp[:]...)
}
