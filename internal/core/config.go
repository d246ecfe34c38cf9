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
//     relabelled in place with zero I/O — plan (one function, pieces,
//     says which stretches of whose segments go where), sub-operation
//     count, block recycling, then build and process per sub-operation
//     (one walker, window, cuts both sides), assemble;
//  4. final merge (mergelocal.go): every PE merges its R local run
//     pieces with prefetching, entirely without communication, onto
//     its disks or straight into the Sink — job.MergeFiles, the local
//     merge the baseline shares; the run pieces are job.Files.
package core

import "demsort/internal/job"

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
	// the Appendix B choice K = B, or coarser where that sample would
	// not fit its budget share).
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

// MaxElemsPerPE returns the largest two-pass-sortable input per PE
// under cfg (job.Plan.MaxElemsPerPE); multiplying by P gives the machine
// capacity Θ(P·m²/B) from §IV-D. The refusal is not the question here:
// a refused plan still carries the capacity, 0 when nothing fits.
func (cfg *Config) MaxElemsPerPE(elemSize int) int64 {
	pl, _ := job.NewPlan(job.Shape{Sorter: job.Canonical, P: cfg.P, MemElems: cfg.MemElems, BlockBytes: cfg.BlockBytes, ElemSize: elemSize})
	return pl.MaxElemsPerPE
}
