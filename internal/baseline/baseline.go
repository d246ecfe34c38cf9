// Package baseline implements the comparison algorithms the paper
// positions itself against:
//
//   - SampleSort: a NOW-Sort-style distribution sort (Arpaci-Dusseau
//     et al., SIGMOD 1997). One pass reads the input and routes every
//     record to its destination PE using splitters estimated from a
//     key sample; each PE then sorts what it received externally. Fast
//     for random inputs, but "it only works efficiently for random
//     inputs. In the worst case, it deteriorates to a sequential
//     algorithm since all the data ends up in a single processor"
//     (§II) — the skew experiments measure exactly that.
//
//   - ExternalMergeSortSeq: the classic single-node two-pass external
//     mergesort, the P = 1 reference point.
package baseline

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"demsort/internal/blockio"
	"demsort/internal/bufpool"
	"demsort/internal/cluster"
	"demsort/internal/elem"
	"demsort/internal/job"
	"demsort/internal/psort"
	"demsort/internal/xmerge"
)

// Phase names of the sample sort.
const (
	PhaseSample     = "sampling"
	PhaseDistribute = "distribute"
	PhaseLocalSort  = "local external sort"
)

// Config parameterises the baselines: the machine and I/O configuration
// every sorter shares plus the sample size. A distribution sort has no
// run-formation knobs, and the baselines always run overlapped.
type Config struct {
	job.Base
	// Oversample is the number of sample keys per PE (default 32).
	Oversample int
}

// DefaultConfig mirrors core.DefaultConfig for the baselines.
func DefaultConfig(p int, memElems int64, blockBytes int) Config {
	return Config{Base: job.Defaults(p, memElems, blockBytes).Base, Oversample: 32}
}

// Result reports a baseline run: the shared job statistics plus the
// skew metric.
type Result[T any] struct {
	job.Stats
	// Output[rank] is PE rank's sorted part (KeepOutput only). Unlike
	// CANONICALMERGESORT, part sizes are *not* exact — that is the
	// point of the comparison.
	Output [][]T
	// PartSizes[rank] counts the elements PE rank ended up with; the
	// imbalance ratio max/avg is the skew metric of the experiments.
	PartSizes []int64
}

// Imbalance returns max partition size over the ideal N/P — 1.0 means
// perfectly balanced, P means everything on one PE.
func (r *Result[T]) Imbalance() float64 {
	var maxPart int64
	for _, s := range r.PartSizes {
		if s > maxPart {
			maxPart = s
		}
	}
	if r.N == 0 {
		return 1
	}
	return float64(maxPart) * float64(r.P) / float64(r.N)
}

// SampleSort runs the NOW-Sort-style distribution sort on the
// simulated cluster.
func SampleSort[T any](c elem.Codec[T], cfg Config, input [][]T) (*Result[T], error) {
	if cfg.Oversample <= 0 {
		cfg.Oversample = 32
	}
	common := job.Common{Base: cfg.Base, Overlap: true}
	j, err := job.Open(c, &common, input, 0.25) // forms no runs: only BElem is used
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	cfg.Base = common.Base // with Open's defaults applied
	sz, bElem := c.Size(), j.BElem
	if err := j.Start(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	defer j.Close()
	if len(j.M.Nodes()) != cfg.P {
		// PartSizes/N aggregation (the skew metrics) is in-process.
		return nil, fmt.Errorf("baseline: machine hosts %d of %d PEs; the baselines require all PEs in-process (use the sim backend)", len(j.M.Nodes()), cfg.P)
	}

	res := &Result[T]{
		Stats:     j.NewStats([]string{PhaseSample, PhaseDistribute, PhaseLocalSort}),
		PartSizes: make([]int64, cfg.P),
	}
	if cfg.KeepOutput {
		res.Output = make([][]T, cfg.P)
	}

	err = j.Run(func(n *cluster.Node) error {
		// Load input to disk (unmeasured), block-aligned.
		blocks, err := j.Load(n)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		var myN int64
		for _, b := range blocks {
			myN += int64(b.Bytes / sz)
		}

		// Phase 1: sample keys and agree on splitters. NOW-Sort reads
		// a random subset of keys — cheap, but only approximate.
		n.SetPhase(PhaseSample)
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(n.Rank)+0xBA5E))
		sample := make([]T, 0, cfg.Oversample)
		raw := make([]byte, cfg.BlockBytes)
		for i := 0; i < cfg.Oversample && myN > 0; i++ {
			b := blocks[rng.Uint64N(uint64(len(blocks)))]
			n.Vol.ReadWait(b.ID, raw[:b.Bytes])
			at := int(rng.Uint64N(uint64(b.Bytes / sz)))
			sample = append(sample, c.Decode(raw[at*sz:]))
		}
		all := n.AllGather(elem.EncodeSlice(c, sample))
		var pool []T
		for _, buf := range all {
			pool = elem.AppendDecode(c, pool, buf, len(buf)/sz)
		}
		psort.Sort(c, pool, 1)
		splitters := make([]T, 0, cfg.P-1)
		for i := 1; i < cfg.P; i++ {
			if len(pool) > 0 {
				splitters = append(splitters, pool[len(pool)*i/cfg.P])
			}
		}
		n.AddCPU(cfg.Model.SortCPU(int64(len(pool))))

		// Phase 2: stream the input once, routing each element by
		// binary search over the splitters; memory-sized flushes.
		n.SetPhase(PhaseDistribute)
		dest := func(v T) int {
			if len(splitters) == 0 {
				return 0
			}
			return sort.Search(len(splitters), func(i int) bool {
				return c.Less(v, splitters[i])
			})
		}
		// Received data goes to disk in sorted memory-sized runs.
		var recvRuns [][]blockio.BlockID
		var recvRunLens [][]int
		var recvTotal int64
		pendingRecv := make([]T, 0)
		flushRecv := func() {
			if len(pendingRecv) == 0 {
				return
			}
			psort.Sort(c, pendingRecv, psort.DefaultWorkers())
			n.AddCPU(cfg.Model.SortCPU(int64(len(pendingRecv))))
			var ids []blockio.BlockID
			var lens []int
			for off := 0; off < len(pendingRecv); off += bElem {
				hi := off + bElem
				if hi > len(pendingRecv) {
					hi = len(pendingRecv)
				}
				id := n.Vol.Alloc()
				n.Vol.WriteAsync(id, elem.EncodeSlice(c, pendingRecv[off:hi]))
				ids = append(ids, id)
				lens = append(lens, hi-off)
			}
			recvRuns = append(recvRuns, ids)
			recvRunLens = append(recvRunLens, lens)
			pendingRecv = pendingRecv[:0]
		}

		chunkBlocks := 1
		if cfg.MemElems > 0 {
			if cb := int(cfg.MemElems / 4 / int64(bElem)); cb > chunkBlocks {
				chunkBlocks = cb
			}
		} else {
			chunkBlocks = 64
		}
		runCap := int64(chunkBlocks * bElem)
		rounds := (len(blocks) + chunkBlocks - 1) / chunkBlocks
		globalRounds := int(n.AllReduceInt64(int64(rounds), "max"))
		for round := 0; round < globalRounds; round++ {
			send := make([][]byte, cfg.P)
			lo := round * chunkBlocks
			if lo < len(blocks) {
				hi := lo + chunkBlocks
				if hi > len(blocks) {
					hi = len(blocks)
				}
				for _, b := range blocks[lo:hi] {
					n.Vol.ReadWait(b.ID, raw[:b.Bytes])
					for off := 0; off < b.Bytes; off += sz {
						v := c.Decode(raw[off:])
						q := dest(v)
						send[q] = elem.AppendEncode(c, send[q], []T{v})
					}
					n.Vol.Free(b.ID)
					n.AddCPU(cfg.Model.ScanCPU(int64(b.Bytes/sz)) * 2)
				}
			}
			recv := n.AllToAllv(send)
			for q := 0; q < cfg.P; q++ {
				cnt := len(recv[q]) / sz
				pendingRecv = elem.AppendDecode(c, pendingRecv, recv[q], cnt)
				recvTotal += int64(cnt)
				if int64(len(pendingRecv)) >= runCap {
					flushRecv()
				}
			}
			cluster.RecycleRecv(recv)
		}
		flushRecv()
		n.Vol.Drain()
		n.Barrier()

		// Phase 3: local external merge of the received runs.
		n.SetPhase(PhaseLocalSort)
		out, err := mergeRuns(c, n, cfg, recvRuns, recvRunLens, bElem)
		if err != nil {
			return err
		}
		n.Vol.Drain()
		n.Barrier()

		n.SetPhase(job.PhaseCollect)
		res.PartSizes[n.Rank] = recvTotal
		if cfg.KeepOutput {
			res.Output[n.Rank] = out
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	j.Harvest(&res.Stats)
	for _, part := range res.PartSizes {
		res.N += part
	}
	return res, nil
}

// mergeRuns k-way merges sorted on-disk runs, reading and writing each
// element once, and returns the decoded output when KeepOutput — the
// same streaming merge (xmerge.MergeStream) as the core final merge.
func mergeRuns[T any](c elem.Codec[T], n *cluster.Node, cfg Config, runs [][]blockio.BlockID, runLens [][]int, bElem int) ([]T, error) {
	sz := c.Size()
	bufs := make([][]T, len(runs)) // per run: the decode buffer of its current block
	at := make([]int, len(runs))   // per run: the next block to read
	next := func(i int) []T {
		b := at[i]
		if b >= len(runs[i]) {
			return nil
		}
		at[i]++
		raw := bufpool.Get(runLens[i][b] * sz)
		n.Vol.ReadWait(runs[i][b], raw)
		bufs[i] = elem.AppendDecode(c, bufs[i][:0], raw, runLens[i][b])
		bufpool.Put(raw)
		n.Vol.Free(runs[i][b])
		return bufs[i]
	}
	var out []T
	err := xmerge.MergeStream(c, len(runs), bElem, next, func(blk []T) error {
		id := n.Vol.Alloc()
		enc := bufpool.Get(len(blk) * sz)
		defer bufpool.Put(enc)
		elem.EncodeInto(c, enc, blk)
		// The Sink sees each output block exactly once, in order, before
		// the buffer is handed to the async write (the slice is only
		// valid for the duration of the call — same contract as core).
		var sinkErr error
		if cfg.Sink != nil {
			sinkErr = cfg.Sink(n.Rank, enc)
		}
		n.Vol.WriteAsync(id, enc)
		if cfg.KeepOutput {
			out = append(out, blk...)
		}
		n.AddCPU(cfg.Model.MergeCPU(int64(len(blk)), len(runs)) + cfg.Model.ScanCPU(int64(len(blk))))
		return sinkErr
	})
	if err != nil {
		return nil, fmt.Errorf("baseline: output sink, rank %d: %w", n.Rank, err)
	}
	return out, nil
}

// ExternalMergeSortSeq sorts one PE's data with the classic two-pass
// external mergesort (run formation + k-way merge) and returns the
// modelled stats; it reuses the cluster machinery with P = 1.
func ExternalMergeSortSeq[T any](c elem.Codec[T], cfg Config, input []T) (*Result[T], error) {
	cfg.P = 1
	return SampleSort(c, cfg, [][]T{input}) // with P=1 the distribute pass degenerates to run formation
}
