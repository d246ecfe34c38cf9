// Package stripesort implements the paper's Section III algorithm:
// multiway mergesort with *global striping*. Runs and the final output
// are striped over all disks of the machine (block g of a sequence
// lives on PE g mod P), merging is driven by a prediction sequence
// (the smallest key of every data block) so that blocks are fetched in
// exactly the order merging needs them, and batches of Θ(M/B) blocks
// are merged with the distributed internal merge.
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
// budget: below canonical's 0.25 because every PE also holds the
// prediction table (see job.Geometry).
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
	// Batches is the number of merge batches.
	Batches int
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
	sz := c.Size()

	// Capacity: the merge keeps at most one leftover block per run in
	// memory machine-wide, and each PE buffers its fetch quota, so R
	// may grow to Θ(M/B) — the global constraint of Section III.
	if runs := j.Runs(j.NPerPE); cfg.MemElems > 0 && runs*int64(j.BElem) > int64(cfg.P)*cfg.MemElems/4 {
		return nil, fmt.Errorf("stripesort: %d runs exceed the machine capacity M/(4B) = %d",
			runs, int64(cfg.P)*cfg.MemElems/(4*int64(j.BElem)))
	}
	// The prediction table — one entry per block of the input — is held
	// on every PE for the whole merge, which sizes its fetch quota from
	// what is left and needs an eighth of the budget at the least.
	if table := (int64(cfg.P)*j.NPerPE + int64(j.BElem) - 1) / int64(j.BElem); cfg.MemElems > 0 && table > cfg.MemElems-cfg.MemElems/8 {
		return nil, fmt.Errorf("stripesort: the prediction table (%d entries, one per %d-element block, on every PE) leaves less than an eighth of the memory budget of %d elements to merge with; raise the budget or the block size (demsort -mem / -block)",
			table, j.BElem, cfg.MemElems)
	}
	if err := j.Start(); err != nil {
		return nil, fmt.Errorf("stripesort: %w", err)
	}
	defer j.Close()

	// KeepOutput rides on the Sink path: an internal sink decodes each
	// rank's contiguous output range, and the ranges concatenate in
	// rank order to the globally sorted sequence. Distinct ranks write
	// distinct slots, so the sim backend's concurrent PEs need no lock.
	sink := cfg.Sink
	var keep [][]T
	if cfg.KeepOutput {
		if hosted := len(j.M.Nodes()); hosted != cfg.P {
			return nil, fmt.Errorf("stripesort: KeepOutput needs all %d PEs hosted in-process (machine hosts %d); stream a distributed run through Sink instead", cfg.P, hosted)
		}
		keep = make([][]T, cfg.P)
		user := sink
		sink = func(rank int, b []byte) error {
			keep[rank] = elem.AppendDecode(c, keep[rank], b, len(b)/sz)
			if user != nil {
				return user(rank, b)
			}
			return nil
		}
	}

	res := &Result[T]{
		Stats:         j.NewStats([]string{PhaseRunForm, PhaseMerge}),
		StripedBlocks: make([]int64, cfg.P),
	}
	err = j.Run(func(n *cluster.Node) error {
		st, err := runPE(j, c, n, &cfg, sink)
		if err != nil {
			return err
		}
		res.StripedBlocks[n.Rank] = int64(len(st.outBlocks))
		res.OutputLens[n.Rank] = st.outN
		if j.First(n) {
			res.N, res.Runs, res.Batches = st.totalN, st.runs, st.batches
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	j.Harvest(&res.Stats)
	if cfg.KeepOutput {
		for _, part := range keep {
			res.Output = append(res.Output, part...)
		}
	}
	return res, nil
}
