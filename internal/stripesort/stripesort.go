// Package stripesort implements the paper's Section III algorithm:
// multiway mergesort with *global striping*. Runs and the final output
// are striped over all disks of the machine, merging is driven by a
// prediction sequence (the smallest key of every data block) so that
// blocks are fetched in exactly the order merging needs them, and
// batches of Θ(M/B) blocks are merged with the distributed internal
// merge.
//
// Two stripe layouts (pe.home): block g of the output lives on PE
// g mod P, always. Block g of run r lives on PE (g + r) mod P when
// Config.Randomize is on — each run's stripe starts one PE further, so
// the blocks the merge wants next, block g of every run, are spread over
// all PEs instead of piled on one — and on PE g mod P when it is off.
// Every step then keeps all P PEs busy: a merge batch fetches as many
// blocks per PE as the memory budget holds (mergeQuota), runs and
// batches are redistributed under sample splitters (sampleCuts), which
// is all a striped layout needs, and every collect round feeds every
// owner (collectOutput).
//
// Contrast with CANONICALMERGESORT (internal/core): this algorithm's
// I/O volume is exactly 4N — two passes even for inputs near the
// theoretical M²/B limit, a factor P beyond canonical's capacity — but
// every pass communicates the data up to twice (internal sorting or
// merging, then striping), i.e. ~4 communications versus ~1, and the
// output layout is globally striped rather than canonical. This is the
// trade-off the paper's Sections III/IV discuss and the ablation
// benchmarks measure.
package stripesort

import (
	"fmt"

	"demsort/internal/blockio"
	"demsort/internal/cluster"
	"demsort/internal/elem"
	"demsort/internal/job"
)

// Phase names for the two accounted phases.
const (
	PhaseRunForm = "run formation"
	PhaseMerge   = "merge"
)

// runFraction is a PE's share of one run as a fraction of its memory
// budget (see job.Geometry): a fifth, so that the piece of a run
// SortAcross hands a PE under sample splitters — up to 5/4 of its share
// (recvBound), held three times — stays within three quarters of it.
const runFraction = 0.2

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
	// a PE may fetch in one of them (mergeQuota) and MaxFetch[rank] the
	// most PE rank did.
	Batches  int
	Quota    int64
	MaxFetch []int64
	// Output is the globally sorted data reassembled from the stripes
	// (only with KeepOutput).
	Output []T
	// StripedBlocks[rank] is the number of output blocks PE rank
	// stores — the striped layout itself.
	StripedBlocks []int64
}

// stripedBlock is one globally striped output block this PE homes:
// global output block index idx, stored as block id with len elements.
type stripedBlock struct {
	idx int64
	id  blockio.BlockID
	len int
}

// predEntry is one prediction-sequence entry: block blk of run run
// starts with key first (its globally smallest unread element).
// firstKey caches first's normalized uint64 key (elem.KeyFn) so the
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
// (output block g on PE g mod P).
func Sort[T any](c elem.Codec[T], cfg Config, input [][]T) (*Result[T], error) {
	j, err := job.Open(c, &cfg.Common, input, runFraction)
	if err != nil {
		return nil, fmt.Errorf("stripesort: %w", err)
	}

	// Capacity: every PE holds the prediction table — one entry per
	// input block — through the merge, next to the leftover blocks of the
	// R runs and the working set of one batch; R may grow to Θ(M/B), the
	// global constraint of Section III. mergeQuota does the arithmetic.
	bElem, p := int64(j.BElem), int64(cfg.P)
	table, runs := p*((j.NPerPE+bElem-1)/bElem), j.Runs(j.NPerPE)
	if mergeQuota(cfg.MemElems, table, bElem, runs, cfg.P, cfg.Randomize) == 0 {
		layout := "unrotated run stripes (Randomize is off) can leave all of them on one PE"
		if cfg.Randomize {
			layout = "rotated run stripes spread them over the PEs"
		}
		return nil, fmt.Errorf("stripesort: no merge batch fits the memory budget of %d elements: every PE holds the prediction table (%d entries, one per %d-element block) and the leftover blocks of %d runs (%s), and needs room to fetch and merge at least one more; raise the budget or change the block size (demsort -mem / -block)",
			cfg.MemElems, table, bElem, runs, layout)
	}
	// A collect round is a quarter of the budget and holds at least one
	// block per (home, owner) pair (collectWindow).
	if (cfg.Sink != nil || cfg.KeepOutput) && cfg.MemElems > 0 && cfg.MemElems < 4*p*bElem {
		return nil, fmt.Errorf("stripesort: collecting the output stages a block for each of the %d PEs, four rounds deep: %d elements of a memory budget of %d; raise the budget or lower the block size (demsort -mem / -block)",
			p, 4*p*bElem, cfg.MemElems)
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
