// Package baseline implements the comparison algorithm the paper
// positions itself against, SampleSort: a NOW-Sort-style distribution
// sort (Arpaci-Dusseau et al., SIGMOD 1997). One pass reads the input
// and routes every record to its destination PE using splitters
// estimated from a key sample; each PE then sorts what it received
// externally, keeping its sorted runs as the canonical sorter's run
// files (job.Writer) and merging them with the same local merge
// (Job.MergeFiles). Fast for random inputs, but "it only works
// efficiently for random inputs. In the worst case, it deteriorates to
// a sequential algorithm since all the data ends up in a single
// processor" (§II) — the skew experiments measure exactly that. At
// P = 1 it is the classic two-pass external mergesort.
package baseline

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"demsort/internal/blockio"
	"demsort/internal/cluster"
	"demsort/internal/elem"
	"demsort/internal/job"
	"demsort/internal/psort"
)

// Phase names of the sample sort.
const (
	PhaseSample     = "sampling"
	PhaseDistribute = "distribute"
	PhaseLocalSort  = "local external sort"
)

// Config parameterises the baselines: the machine and I/O configuration
// every sorter shares. A distribution sort has no run-formation knobs,
// and the baselines always run overlapped.
type Config struct {
	job.Base
}

// oversample is the number of sample keys per PE.
const oversample = 32

// DefaultConfig mirrors core.DefaultConfig for the baselines.
func DefaultConfig(p int, memElems int64, blockBytes int) Config {
	return Config{Base: job.Defaults(p, memElems, blockBytes).Base}
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
	common := job.Common{Base: cfg.Base, Overlap: true}
	j, err := job.Open(c, &common, input, job.Baseline, 0)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	cfg.Base = common.Base // with Open's defaults applied
	sz := c.Size()
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
	sink, kept := j.OutputSink()
	res.Output = kept

	err = j.Run(func(n *cluster.Node) error {
		// Open the input (unmeasured), block-aligned.
		input, err := j.Load(n)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		blocks := input.Spans
		var myN int64
		for _, b := range blocks {
			myN += int64(b.Bytes / sz)
		}
		raw := make([]byte, cfg.BlockBytes)
		read := func(b blockio.Span) error { // span b into raw
			n.Vol.Wait(input.Issue(b))
			return input.Fill(b, raw[:b.Bytes])
		}

		// Phase 1: sample keys and agree on splitters. NOW-Sort reads
		// a random subset of keys — cheap, but only approximate.
		n.SetPhase(PhaseSample)
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(n.Rank)+0xBA5E))
		sample := make([]T, 0, oversample)
		for i := 0; i < oversample && myN > 0; i++ {
			b := blocks[rng.Uint64N(uint64(len(blocks)))]
			if err := read(b); err != nil {
				return err
			}
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
		var recvRuns []job.File
		var recvTotal int64
		pendingRecv := make([]T, 0)
		flushRecv := func() {
			if len(pendingRecv) == 0 {
				return
			}
			psort.Sort(c, pendingRecv, psort.DefaultWorkers())
			n.AddCPU(cfg.Model.SortCPU(int64(len(pendingRecv))))
			w := job.NewWriter(c, n.Vol)
			w.AddSlice(pendingRecv)
			recvRuns = append(recvRuns, w.Finish())
			pendingRecv = pendingRecv[:0]
		}

		// One round distributes one chunk: the plan's run.
		chunkBlocks, runCap := j.BlocksPerRun, j.RunLocal
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
					if err := read(b); err != nil {
						return err
					}
					for off := 0; off < b.Bytes; off += sz {
						q := dest(c.Decode(raw[off:]))
						send[q] = append(send[q], raw[off:off+sz]...)
					}
					input.Release(b)
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
		if _, err := j.MergeFiles(n, recvRuns, sink); err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		n.Vol.Drain()
		n.Barrier()

		n.SetPhase(job.PhaseCollect)
		res.PartSizes[n.Rank] = recvTotal
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
