// Package core implements CANONICALMERGESORT (Section IV of the
// paper), the primary contribution: a distributed-memory external
// mergesort whose output is the canonical partition — PE i ends up with
// the elements of global ranks (i·N/P, (i+1)·N/P] striped over its
// local disks — while communicating the data only once in the best
// case and needing 4N + o(N) I/O volume.
//
// The four phases, each accounted separately (Figures 2-4, 6):
//
//  1. run formation (runform.go): R global runs are formed from
//     randomly chosen local blocks, sorted with the distributed
//     internal sort, written to local disks, and sampled;
//  2. multiway selection (selection.go): exact global splitters for
//     the ranks i·N/P over all R runs, bootstrapped from the in-memory
//     sample and finished by owner-computes bisection (package dselect):
//     every PE probes only its own blocks, pivots and counts travel;
//  3. external all-to-all (exchange.go): data redistribution in
//     memory-sized sub-operations, with the self-destined majority
//     relabelled in place with zero I/O;
//  4. final merge (mergelocal.go): every PE merges its R local run
//     pieces with prefetching, entirely without communication.
package core

import (
	"fmt"

	"demsort/internal/job"
)

// Phase names used in per-phase statistics and the figures.
const (
	PhaseLoad      = job.PhaseLoad
	PhaseRunForm   = "run formation"
	PhaseSelection = "multiway selection"
	PhaseExchange  = "all-to-all"
	PhaseMerge     = "final merge"
)

// Phases lists the accounted sort phases in algorithm order.
func Phases() []string {
	return []string{PhaseRunForm, PhaseSelection, PhaseExchange, PhaseMerge}
}

// Config parameterises CANONICALMERGESORT: the configuration every
// sorter shares (job.Common) plus what only this algorithm has.
type Config struct {
	job.Common
	// SampleK is the sampling distance K in elements (0 = one block,
	// the Appendix B choice K = B).
	SampleK int64
	// Checkpoint enables the durable checkpoint/restart plane: after
	// run formation and after selection each rank commits a phase
	// manifest under Checkpoint.Dir, and with Resume set a restarted
	// rank rebuilds its state from the manifest instead of re-reading
	// input. Requires a durable block store (see checkpoint.go).
	Checkpoint CheckpointConfig
}

// DefaultConfig returns a ready-to-use configuration for p PEs with a
// per-PE memory budget of memElems elements and the given block size.
func DefaultConfig(p int, memElems int64, blockBytes int) Config {
	return Config{Common: job.Defaults(p, memElems, blockBytes)}
}

// runFraction is a PE's share of one run as a fraction of its memory
// budget (see job.Geometry).
const runFraction = 0.25

// derived holds the parameters computed from a validated config for a
// particular element size: the shared run geometry plus the sampling
// distance.
type derived struct {
	job.Geometry
	sampleK int64
}

// derive completes a run geometry (job.Open's, computed once per sort)
// with the sampling distance, enforcing the paper's memory constraints.
func (cfg *Config) derive(g job.Geometry) (derived, error) {
	if cfg.MemElems > 0 && int64(g.BElem)*4 > cfg.MemElems {
		return derived{}, fmt.Errorf("core: memory budget %d elements cannot hold 4 blocks of %d", cfg.MemElems, g.BElem)
	}
	d := derived{Geometry: g, sampleK: cfg.SampleK}
	if d.sampleK <= 0 {
		d.sampleK = int64(g.BElem)
	}
	return d, nil
}

// checkCapacity verifies that nPerPE elements per PE can be sorted in
// two passes under cfg: the final merge needs two prefetch buffers and
// an output buffer per run within the memory budget, and the sample
// must fit in memory. This is the practical form of the paper's
// O(P·m²/B) capacity bound (§IV-D).
func (cfg *Config) checkCapacity(d derived, nPerPE int64) error {
	if cfg.MemElems <= 0 {
		return nil
	}
	runs := d.Runs(nPerPE)
	// Merge memory: 2 input blocks per run (double buffering) plus an
	// output block, within half the budget.
	if need := (2*runs + 1) * int64(d.BElem); need > cfg.MemElems/2 {
		return fmt.Errorf("core: %d runs of %d-element blocks need %d elements of merge buffers, budget allows %d — input too large for two passes (capacity %d elements/PE)",
			runs, d.BElem, need, cfg.MemElems/2, cfg.maxElemsPerPE(d))
	}
	// Sample memory: N/K elements on every PE, within an eighth.
	sample := runs * ((d.RunLocal*int64(cfg.P) + d.sampleK - 1) / d.sampleK)
	if sample > cfg.MemElems/8 {
		return fmt.Errorf("core: sample of %d elements exceeds budget share %d; increase SampleK", sample, cfg.MemElems/8)
	}
	return nil
}

// MaxElemsPerPE returns the largest two-pass-sortable input per PE
// under cfg: the merge-buffer constraint caps the number of runs at
// m/(4B)-ish, each contributing m/4 elements. Multiplying by
// P gives the machine capacity Θ(P·m²/B) from §IV-D.
func (cfg *Config) MaxElemsPerPE(elemSize int) int64 {
	g, err := cfg.Geometry(elemSize, runFraction)
	if err != nil {
		return 0
	}
	d, err := cfg.derive(g)
	if err != nil || cfg.MemElems <= 0 {
		return 0
	}
	return cfg.maxElemsPerPE(d)
}

func (cfg *Config) maxElemsPerPE(d derived) int64 {
	maxRuns := (cfg.MemElems/2 - int64(d.BElem)) / (2 * int64(d.BElem))
	if maxRuns < 1 {
		return 0
	}
	return maxRuns * d.RunLocal
}
