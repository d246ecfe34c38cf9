// Package demsort is a Go reproduction of "Scalable Distributed-Memory
// External Sorting" (Rahn, Sanders, Singler; ICDE 2010) — the DEMSort
// system that led the 2009 Indy GraySort.
//
// The package sorts data that lives on the (simulated) local disks of a
// distributed-memory cluster. Two algorithms are provided:
//
//   - Sort — CANONICALMERGESORT (Section IV, the paper's primary
//     contribution): two I/O passes, data communicated ≈ once, output
//     in the canonical partition (PE i holds global ranks i·N/P …
//     (i+1)·N/P on its local disks);
//   - SortStriped — the globally striped mergesort (Section III):
//     exactly two I/O passes up to the theoretical M²/B input bound,
//     at the price of ~4 data communications and a striped output.
//
// The communication layer is a pluggable transport plane
// (internal/cluster): by default the machine is simulated in-process —
// correctness is real (elements genuinely move between per-PE address
// spaces and through block stores) while running times are modelled by
// a virtual-time cost model calibrated to the paper's testbed, so the
// evaluation figures can be regenerated at laptop scale. Setting
// Options.Machine to a cluster/tcp backend runs the same phase code on
// real processes with wall-clock timings (see cmd/demsort
// -transport=tcp). See README.md for the architecture sketch,
// cmd/benchfig for the figure and table harness and bench/ for the
// host-measured benchmark.
//
// Quick start:
//
//	codec := demsort.KV16Codec{}
//	opts := demsort.NewOptions(4 /*PEs*/, 1<<13 /*mem elems/PE*/, 1024 /*block bytes*/)
//	opts.KeepOutput = true
//	res, err := demsort.Sort(codec, opts, input) // input: one slice per PE
package demsort

import (
	"demsort/internal/core"
	"demsort/internal/elem"
	"demsort/internal/stripesort"
	"demsort/internal/vtime"
)

// Codec describes a fixed-size sortable element type; see elem.Codec.
type Codec[T any] = elem.Codec[T]

// Element types of the paper's evaluation.
type (
	// U64 is an 8-byte self-keyed element.
	U64 = elem.U64
	// KV16 is the 16-byte element with a 64-bit key used in the
	// cluster scaling experiments (Figures 2-6).
	KV16 = elem.KV16
	// Rec100 is the 100-byte SortBenchmark record with a 10-byte key.
	Rec100 = elem.Rec100
)

// Codecs for the element types.
type (
	// U64Codec implements Codec[U64].
	U64Codec = elem.U64Codec
	// KV16Codec implements Codec[KV16].
	KV16Codec = elem.KV16Codec
	// Rec100Codec implements Codec[Rec100].
	Rec100Codec = elem.Rec100Codec
)

// Options configures a sort; it is core.Config re-exported.
type Options = core.Config

// StripedOptions configures the Section III algorithm.
type StripedOptions = stripesort.Config

// CheckpointOptions configures the durable checkpoint/restart plane
// (Options.Checkpoint); it is core.CheckpointConfig re-exported.
type CheckpointOptions = core.CheckpointConfig

// Result carries per-phase measurements and (optionally) the output.
type Result[T any] = core.Result[T]

// StripedResult is the Section III algorithm's result.
type StripedResult[T any] = stripesort.Result[T]

// CostModel re-exports the virtual-time machine model.
type CostModel = vtime.CostModel

// Phase names of CANONICALMERGESORT, in order.
const (
	PhaseRunForm   = core.PhaseRunForm
	PhaseSelection = core.PhaseSelection
	PhaseExchange  = core.PhaseExchange
	PhaseMerge     = core.PhaseMerge
)

// NewOptions returns ready-to-use options for p PEs, a per-PE memory
// budget of memElems elements and blockBytes-sized disk blocks.
func NewOptions(p int, memElems int64, blockBytes int) Options {
	return core.DefaultConfig(p, memElems, blockBytes)
}

// NewStripedOptions is NewOptions for SortStriped.
func NewStripedOptions(p int, memElems int64, blockBytes int) StripedOptions {
	return stripesort.DefaultConfig(p, memElems, blockBytes)
}

// ScaledModel returns the cost model re-calibrated for scaled-down
// block sizes: per-block seek keeps the paper's 0.27 seek-to-transfer
// ratio and per-message latency shrinks with the data scale, so
// modelled times keep the paper's proportions at laptop-sized inputs.
func ScaledModel(blockBytes int) CostModel { return scaledModel(blockBytes) }

// Sort runs CANONICALMERGESORT: input[i] is PE i's on-disk data;
// afterwards PE i holds the elements of global ranks (i·N/P, (i+1)·N/P]
// sorted on its local disks. See core.Sort.
func Sort[T any](c Codec[T], opts Options, input [][]T) (*Result[T], error) {
	return core.Sort(c, opts, input)
}

// SortStriped runs the globally striped mergesort of Section III.
func SortStriped[T any](c Codec[T], opts StripedOptions, input [][]T) (*StripedResult[T], error) {
	return stripesort.Sort(c, opts, input)
}

// Phases lists the accounted phases of Sort in algorithm order.
func Phases() []string { return core.Phases() }
