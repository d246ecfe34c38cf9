// Package stripesort implements the paper's Section III algorithm:
// multiway mergesort with *global striping*. Runs and the final output
// are striped over all disks of the machine, merging is driven by a
// prediction sequence (the smallest key of every data block) so that
// blocks are fetched in exactly the order merging needs them, and
// batches of Θ(M/B) blocks are merged with the distributed internal
// merge.
//
// Two stripe layouts (pe.home): block g of the output, left on the
// volumes when there is no Sink, lives on PE g mod P, always. Block g of
// run r lives on PE (g + r) mod P when Config.Randomize is on — each
// run's stripe starts one PE further, so the blocks the merge wants next,
// block g of every run, are spread over all PEs instead of piled on one —
// and on PE g mod P when it is off. Every step then keeps all P PEs busy:
// a merge batch fetches as many blocks per PE as the memory budget holds
// (job.Plan.MergeQuota), runs and batches are redistributed under sample
// splitters (sampleCuts), which is all a striped layout needs. With a
// Sink the output is not striped over the PEs: the same striper homes
// output block g on its canonical owner (pe.home), rank i receiving the
// block range [G·i/P, G·(i+1)/P) block by block, so the output leaves
// once.
//
// Contrast with CANONICALMERGESORT (internal/core): this algorithm's
// I/O volume is exactly 4N (3N with a Sink, which takes the last write)
// — two passes even for inputs near the theoretical M²/B limit, a factor
// P beyond canonical's capacity — but every pass communicates the data
// up to twice (internal sorting or merging, then striping), i.e. ~4
// communications versus ~1, and without a Sink the output layout is
// globally striped rather than canonical. This is the trade-off the
// paper's Sections III/IV discuss and the ablation benchmarks measure.
package stripesort

import (
	"fmt"

	"demsort/internal/cluster"
	"demsort/internal/elem"
	"demsort/internal/job"
)

// Phase names for the two accounted phases.
const (
	PhaseRunForm = "run formation"
	PhaseMerge   = "merge"
)

// Config parameterises the striped sort: exactly the configuration
// every sorter shares.
type Config struct {
	job.Common
}

// DefaultConfig mirrors core.DefaultConfig for the striped algorithm.
func DefaultConfig(p int, memElems int64, blockBytes int) Config {
	return Config{Common: job.Defaults(p, memElems, blockBytes)}
}

// Result reports a completed striped sort: the shared job statistics
// plus the striped layout.
type Result[T any] struct {
	job.Stats
	// Batches is the number of merge batches, Quota the number of blocks
	// a PE may fetch in one of them (job.Plan.MergeQuota) and MaxFetch[rank] the
	// most PE rank did.
	Batches  int
	Quota    int64
	MaxFetch []int64
	// Output is the globally sorted data, the ranks' Sink streams
	// concatenated (only with KeepOutput).
	Output []T
	// StripedBlocks[rank] is the number of output blocks PE rank
	// stores — the striped layout itself; zero with a Sink (or
	// KeepOutput), which receives the output instead.
	StripedBlocks []int64
}

// predEntry is one prediction-sequence entry: block blk of run run
// starts with key first (its globally smallest unread element).
// firstKey caches first's normalized uint64 key (elem.Keyed) so the
// prediction sort and the batch-boundary probes run on integers, with
// the comparator only breaking equal inexact keys.
type predEntry[T any] struct {
	first    T
	firstKey uint64
	run      int
	blk      int64
}

// Sort runs the globally striped mergesort. input[i] starts on PE i's
// disks; afterwards the sorted sequence is striped across all PEs
// (output block g on PE g mod P), or with a Sink streamed to it in
// canonical block ranges.
func Sort[T any](c elem.Codec[T], cfg Config, input [][]T) (*Result[T], error) {
	j, err := job.Open(c, &cfg.Common, input, job.Striped, 0)
	if err != nil {
		return nil, fmt.Errorf("stripesort: %w", err)
	}
	if err := j.Start(); err != nil {
		return nil, fmt.Errorf("stripesort: %w", err)
	}
	defer j.Close()

	// The kept ranges concatenate in rank order to the globally sorted
	// sequence, so every rank's must be here.
	if hosted := len(j.M.Nodes()); cfg.KeepOutput && hosted != cfg.P {
		return nil, fmt.Errorf("stripesort: KeepOutput needs all %d PEs hosted in-process (machine hosts %d); stream a distributed run through Sink instead", cfg.P, hosted)
	}
	sink, keep := j.OutputSink()

	res := &Result[T]{
		Stats:         j.NewStats([]string{PhaseRunForm, PhaseMerge}),
		StripedBlocks: make([]int64, cfg.P),
		MaxFetch:      make([]int64, cfg.P),
	}
	err = j.Run(func(n *cluster.Node) error {
		st, err := runPE(j, c, n, &cfg, sink)
		if err != nil {
			return err
		}
		res.StripedBlocks[n.Rank] = int64(len(st.outBlocks))
		res.MaxFetch[n.Rank] = st.maxFetch
		res.OutputLens[n.Rank] = st.outN
		if j.First(n) {
			res.N, res.Runs, res.Batches, res.Quota = st.totalN, st.runs, st.batches, st.quota
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	j.Harvest(&res.Stats)
	for _, part := range keep {
		res.Output = append(res.Output, part...)
	}
	return res, nil
}
