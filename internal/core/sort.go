package core

import (
	"fmt"

	"demsort/internal/blockio"
	"demsort/internal/cluster"
	"demsort/internal/elem"
	"demsort/internal/job"
)

// Result reports a completed sort: the shared job statistics (per-PE
// per-phase resource usage, the raw material of every figure, and the
// metrics derived from it) plus what only the canonical sorter has,
// and — when requested — the sorted output.
type Result[T any] struct {
	job.Stats
	// SubOps is the number k of external all-to-all sub-operations.
	SubOps int
	// Output[rank] is the sorted data of PE rank (only with
	// Config.KeepOutput).
	Output [][]T
	// PeakDiskBlocks is the per-PE disk high-water mark.
	PeakDiskBlocks []int64
	// LoadPeakMemElems[rank] is the budget high-water mark at the end
	// of the load phase: zero for an input read in place, and exactly
	// the one block-sized staging chunk for a forward-only Source, so it
	// stays O(B) no matter how large the tile is (the source tests pin
	// both).
	LoadPeakMemElems []int64
	// RunFormPeakMemElems[rank] is the budget high-water mark at the
	// end of run formation, which includes the in-node radix sort
	// scratch (one pair buffer and the histograms of the in-place MSD;
	// the membudget test pins that it does not depend on the headroom).
	// Zero when run formation was restored from a checkpoint instead of
	// executed.
	RunFormPeakMemElems []int64
	// EndMemElems[rank] is the memory budget still reserved when the
	// sort finished — always zero unless a phase leaks reservations
	// (tests assert this).
	EndMemElems []int64
}

// releaseSamples returns the gathered sample's reservation once the
// splitters are exact — it is dead weight from here on, and holding it
// would leak a per-run budget share.
func releaseSamples[T any](n *cluster.Node, meta *runsMeta[T]) {
	for i := range meta.samples {
		n.Mem.Release(int64(len(meta.samples[i].Vals)))
		meta.samples[i].Vals = nil
	}
}

// Sort runs CANONICALMERGESORT on the simulated cluster: input[i] is
// loaded onto PE i's local disks, and afterwards PE i holds the
// elements of global ranks (i·N/P, (i+1)·N/P] sorted on its local
// disks, or handed to the Sink by the final merge. The returned Result
// carries the per-phase measurements.
func Sort[T any](c elem.Codec[T], cfg Config, input [][]T) (*Result[T], error) {
	j, err := job.Open(c, &cfg.Common, input, job.Canonical, cfg.SampleK)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	pl := &j.Plan
	if cfg.Checkpoint.Dir != "" && cfg.Checkpoint.JobID == "" {
		cfg.Checkpoint.JobID = "job"
	}

	if err := j.Start(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer j.Close()

	res := &Result[T]{
		Stats:               j.NewStats(Phases()),
		PeakDiskBlocks:      make([]int64, cfg.P),
		EndMemElems:         make([]int64, cfg.P),
		LoadPeakMemElems:    make([]int64, cfg.P),
		RunFormPeakMemElems: make([]int64, cfg.P),
	}
	sink, kept := j.OutputSink()
	res.Output = kept

	err = j.Run(func(n *cluster.Node) error {
		n.SetPhase(PhaseLoad)

		// Resume negotiation: each rank reads its own committed phase,
		// and the fleet agrees on the minimum with one collective — a
		// rank whose commit raced ahead of the crash downgrades, a rank
		// with no manifest downgrades everyone to a fresh start. A
		// fresh durable run instead clears any stale manifest so a
		// crash before the first commit cannot adopt a dead
		// incarnation's checkpoint.
		durable := cfg.Checkpoint.Dir != ""
		var man *blockio.Manifest
		resumeLvl := ckptNone
		if durable {
			if cfg.Checkpoint.Resume {
				var lvl int64
				var err error
				man, lvl, err = loadCkpt(cfg.Checkpoint, n.Rank, cfg.P, c.Size(), cfg.BlockBytes)
				if err != nil {
					return err
				}
				resumeLvl = n.AllReduceInt64(lvl, "min")
				if resumeLvl < ckptRunform {
					man = nil
				}
			} else if err := blockio.RemoveManifest(cfg.Checkpoint.Dir, n.Rank); err != nil {
				return fmt.Errorf("core: clearing stale manifest, rank %d: %w", n.Rank, err)
			}
		}

		var locals []localRun[T]
		if resumeLvl >= ckptRunform {
			// The runs are already on disk: rebuild the directory from
			// the manifest without touching the input source.
			var err error
			locals, err = restoreRunform(c, n, pl.K, man)
			if err != nil {
				return err
			}
			res.LoadPeakMemElems[n.Rank] = n.Mem.Peak()
			n.Barrier()
			n.Vol.ResetPeak()
		} else {
			// Open the input where it lies, or stage a forward-only
			// Source onto the local disks (outside the measured sort:
			// the paper's inputs pre-exist on disk).
			input, err := j.Load(n)
			if err != nil {
				return fmt.Errorf("core: %w", err)
			}
			res.LoadPeakMemElems[n.Rank] = n.Mem.Peak()
			n.Vol.ResetPeak()

			locals, err = runFormation(c, j, n, input)
			if err != nil {
				return err
			}
			res.RunFormPeakMemElems[n.Rank] = n.Mem.Peak()
			if durable {
				man, err = commitRunform(c, n, &cfg, pl.K, locals)
				if err != nil {
					return err
				}
				// No rank moves on until every rank's commit is on disk
				// — without this, a crash early in the gather or in
				// selection can abort a straggler mid-commit and
				// downgrade the whole fleet's resume to a full re-read.
				n.Barrier()
			}
		}
		var meta *runsMeta[T]
		var split [][]int64
		if resumeLvl >= ckptSelection {
			// The splitter matrix is identical on every rank and tiny —
			// reuse the committed copy instead of re-running selection,
			// the sample's only reader, so no sample is gathered.
			meta = localRunsMeta(n, locals)
			split = man.Splitters
		} else {
			meta = gatherRunsMeta(c, n, pl.K, locals)
			split = multiwaySelection(c, n, pl, meta, locals)
			if durable {
				if err := commitSelection(&cfg, n, man, split); err != nil {
					return err
				}
				// Same fencing as the run-formation commit: a crash in
				// the exchange must find every selection commit durable.
				n.Barrier()
			}
			releaseSamples(n, meta)
		}

		pieces, k, err := exchange(c, n, &cfg, pl, meta, locals, split)
		if err != nil {
			return err
		}

		outN, err := mergeLocal(j, n, pieces, sink)
		if err != nil {
			return err
		}

		// Post-sort bookkeeping, outside the measured phases. N is the
		// run directory's; the barrier closes the sort: no rank returns
		// (and publishes what its sink received) before every rank has
		// merged, so a rank lost here aborts the whole fleet.
		n.SetPhase(job.PhaseCollect)
		n.Barrier()
		if j.First(n) {
			res.N, res.Runs, res.SubOps = meta.totalN, len(locals), k
		}
		res.OutputLens[n.Rank] = outN
		res.PeakDiskBlocks[n.Rank] = n.Vol.PeakUsed()
		res.EndMemElems[n.Rank] = n.Mem.Used()
		return nil
	})
	if err != nil {
		return nil, err
	}

	j.Harvest(&res.Stats)
	return res, nil
}
