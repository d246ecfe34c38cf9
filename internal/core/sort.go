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
	// of the load phase. A Source-fed load charges only its three
	// block-sized staging chunks, so this stays O(B) no matter how
	// large the tile is (the membudget test pins it).
	LoadPeakMemElems []int64
	// RunFormPeakMemElems[rank] is the budget high-water mark at the
	// end of run formation, which now includes the in-node radix sort
	// scratch (pair buffers, histograms, and the LSD gather buffer —
	// the in-place MSD path has no gather buffer, which the membudget
	// test pins as roughly halved scratch). Zero when run formation
	// was restored from a checkpoint instead of executed.
	RunFormPeakMemElems []int64
	// EndMemElems[rank] is the memory budget still reserved when the
	// sort finished — always zero unless a phase leaks reservations
	// (tests assert this).
	EndMemElems []int64
}

// releaseSamples returns the sample reservations of run formation
// (per-run local samples) and of gatherRunsMeta (the gathered global
// sample) once the splitters are exact — the samples are dead weight
// from here on, and holding them would leak a per-run budget share.
func releaseSamples[T any](n *cluster.Node, meta *runsMeta[T], locals []localRun[T]) {
	var sampleElems int64
	for i := range locals {
		sampleElems += int64(len(locals[i].sample))
		locals[i].sample = nil
	}
	for i := range meta.samples {
		sampleElems += int64(len(meta.samples[i].Vals))
		meta.samples[i].Vals = nil
	}
	n.Mem.Release(sampleElems)
}

// Sort runs CANONICALMERGESORT on the simulated cluster: input[i] is
// loaded onto PE i's local disks, and afterwards PE i holds the
// elements of global ranks (i·N/P, (i+1)·N/P] sorted on its local
// disks. The returned Result carries the per-phase measurements.
func Sort[T any](c elem.Codec[T], cfg Config, input [][]T) (*Result[T], error) {
	j, err := job.Open(c, &cfg.Common, input, runFraction)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	d, err := cfg.derive(j.Geometry)
	if err != nil {
		return nil, err
	}
	if cfg.SampleK == 0 && cfg.MemElems > 0 {
		// Auto-size the sampling distance so the in-memory sample
		// (N/K elements on every PE) fits its budget share: K = B
		// when possible, coarser for large machines (the footnote-12
		// pressure).
		runs := d.Runs(j.NPerPE)
		k := int64(d.BElem)
		sample := func(k int64) int64 {
			return runs * ((d.RunLocal*int64(cfg.P) + k - 1) / k)
		}
		for sample(k) > cfg.MemElems/8 {
			k = k*5/4 + 1
		}
		cfg.SampleK = k
		d.sampleK = k
	}
	if err := cfg.checkCapacity(d, j.NPerPE); err != nil {
		return nil, err
	}
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
		var meta *runsMeta[T]
		if resumeLvl >= ckptRunform {
			// The runs are already on disk: rebuild the directory from
			// the manifest without touching the input source.
			var err error
			locals, meta, err = restoreRunform(c, n, d, man)
			if err != nil {
				return err
			}
			res.LoadPeakMemElems[n.Rank] = n.Mem.Peak()
			n.Barrier()
			n.Vol.ResetPeak()
		} else {
			// Load the input onto the local disks (outside the measured
			// sort: the paper's inputs pre-exist on disk).
			spans, err := j.Load(n)
			if err != nil {
				return fmt.Errorf("core: %w", err)
			}
			res.LoadPeakMemElems[n.Rank] = n.Mem.Peak()
			n.Vol.ResetPeak()

			locals, err = runFormation(c, j, n, d, spans)
			if err != nil {
				return err
			}
			res.RunFormPeakMemElems[n.Rank] = n.Mem.Peak()
			meta = gatherRunsMeta(c, n, d, locals)
			if durable {
				man, err = commitRunform(c, n, &cfg, d, meta, locals)
				if err != nil {
					return err
				}
				// No rank enters selection until every rank's commit is
				// on disk — without this, a crash early in selection can
				// abort a straggler mid-commit and downgrade the whole
				// fleet's resume to a full re-read.
				n.Barrier()
			}
		}

		var split [][]int64
		if resumeLvl >= ckptSelection {
			// The splitter matrix is identical on every rank and tiny —
			// reuse the committed copy instead of re-running selection.
			split = man.Splitters
		} else {
			split = multiwaySelection(c, n, &cfg, d, meta, locals)
			if durable {
				if err := commitSelection(&cfg, n, man, split); err != nil {
					return err
				}
				// Same fencing as the run-formation commit: a crash in
				// the exchange must find every selection commit durable.
				n.Barrier()
			}
		}
		releaseSamples(n, meta, locals)

		pieces, k, err := exchange(c, n, &cfg, d, meta, locals, split)
		if err != nil {
			return err
		}

		out, err := mergeLocal(c, n, &cfg, d, pieces)
		if err != nil {
			return err
		}

		// Post-sort bookkeeping, outside the measured phases.
		n.SetPhase(job.PhaseCollect)
		totalN := n.AllReduceInt64(out.N, "sum")
		if j.First(n) {
			res.N, res.Runs, res.SubOps = totalN, len(locals), k
		}
		res.OutputLens[n.Rank] = out.N
		if sink != nil {
			err := streamRaw(c, n.Vol, out, func(b []byte) error { return sink(n.Rank, b) })
			if err != nil {
				return fmt.Errorf("core: output sink, rank %d: %w", n.Rank, err)
			}
		}
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
