package core

// The checkpoint/restart plane of CANONICALMERGESORT. Two phase
// boundaries are worth committing: after run formation (the expensive
// input pass — runs on disk, their lengths, extents and sample shares in
// the manifest) and after multiway selection (the splitter matrix, tiny
// and identical on every rank). At either commit a rank's live blocks
// are exactly those its extents name, so a resume derives the store's
// block layout and allocator from them. From the selection checkpoint a
// restarted fleet re-does only the exchange and merge; from the
// run-formation checkpoint it also gathers the sample and re-runs
// selection; with no checkpoint it starts from scratch. Either way the
// input is never re-read once run formation has committed.
//
// Durable mode changes one thing about the data plane: the exchange no
// longer frees or relabels-as-owned the run blocks it has consumed
// (exchange.go), and so the merge cannot recycle them either — the run
// directory stays intact on disk until the job finishes, at the price
// of the sort no longer being in-place (disk high-water roughly 3N/P
// per rank instead of ~N/P). That is the classic checkpoint tradeoff:
// space for restartability.
//
// Resume is fleet-uniform and crash-consistent: every rank loads its
// own manifest and the fleet agrees on min(committed phase) with one
// AllReduce, so a crash that left some ranks one commit ahead (between
// a collective and the commits after it) downgrades them to the
// phase everyone reached. A rank whose manifest is missing (crashed
// before its first commit) downgrades the whole fleet to a fresh
// start.

import (
	"fmt"
	"os"

	"demsort/internal/blockio"
	"demsort/internal/cluster"
	"demsort/internal/elem"
	"demsort/internal/job"
)

// CheckpointConfig parameterises the durable checkpoint plane.
type CheckpointConfig struct {
	// Dir is where the per-rank manifests live (usually the spill
	// directory, next to the durable block files). Empty disables
	// checkpointing entirely.
	Dir string
	// JobID names the job across restarts; manifests from a different
	// job are rejected. Empty defaults to "job".
	JobID string
	// Epoch is the fleet incarnation number; a restarted job resumes
	// with a higher epoch than the one that crashed.
	Epoch int
	// Resume makes Sort rebuild state from the committed manifests and
	// skip the committed phases. It must be set uniformly across the
	// fleet (the ranks agree on the minimum committed phase with a
	// collective). With no manifests on disk, Resume degrades to a
	// normal fresh run.
	Resume bool
}

// Committed phase levels, ordered by progress.
const (
	ckptNone      = int64(0)
	ckptRunform   = int64(1)
	ckptSelection = int64(2)
)

// The optional durable-store surface a checkpointed volume must have
// (blockio.FileStore): an adopted store is told its block layout.
type lensStore interface {
	SetBlockLens(map[blockio.BlockID]int)
}

// loadCkpt reads and validates one rank's manifest, returning its
// committed phase level: ckptNone without a manifest, ckptSelection
// once it holds the splitters, ckptRunform otherwise.
func loadCkpt(ck CheckpointConfig, rank, p, elemSize, blockBytes int) (*blockio.Manifest, int64, error) {
	man, err := blockio.LoadManifest(ck.Dir, rank)
	if os.IsNotExist(err) {
		return nil, ckptNone, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("core: resume: %w", err)
	}
	if err := man.Validate(ck.JobID, rank, p, ck.Epoch, elemSize, blockBytes); err != nil {
		return nil, 0, fmt.Errorf("core: resume: %w", err)
	}
	if man.Splitters != nil {
		return man, ckptSelection, nil
	}
	return man, ckptRunform, nil
}

// commitRunform writes the run-formation checkpoint: store contents
// fsync'd first, then the manifest describing them — this rank's runs:
// each one's length, extents and sample share — unless the volume holds
// other blocks than the one each extent names.
func commitRunform[T any](c elem.Codec[T], n *cluster.Node, cfg *Config, k int64, locals []localRun[T]) (*blockio.Manifest, error) {
	if _, ok := n.Vol.Store().(lensStore); !ok {
		return nil, fmt.Errorf("core: Checkpoint.Dir is set but rank %d's block store is not durable (use blockio.DurableFileStoreFactory)", n.Rank)
	}
	if err := n.Vol.SyncStore(); err != nil {
		return nil, fmt.Errorf("core: checkpoint sync, rank %d: %w", n.Rank, err)
	}
	man := &blockio.Manifest{
		JobID:      cfg.Checkpoint.JobID,
		Rank:       n.Rank,
		P:          cfg.P,
		Epoch:      cfg.Checkpoint.Epoch,
		ElemSize:   c.Size(),
		BlockBytes: cfg.BlockBytes,
		SampleK:    k,
		Runs:       make([]blockio.RunMeta, len(locals)),
	}
	named := int64(0)
	for ri, lr := range locals {
		man.Runs[ri] = blockio.RunMeta{RunLen: lr.runLen, Extents: lr.file.Extents, Sample: elem.AppendEncode(c, nil, lr.sample)}
		named += int64(len(lr.file.Extents))
	}
	if named != n.Vol.Used() {
		return nil, fmt.Errorf("core: checkpoint commit, rank %d: %d blocks are live but its runs' extents name %d", n.Rank, n.Vol.Used(), named)
	}
	if err := man.WriteFile(cfg.Checkpoint.Dir); err != nil {
		return nil, fmt.Errorf("core: checkpoint commit, rank %d: %w", n.Rank, err)
	}
	return man, nil
}

// commitSelection advances an existing manifest to the selection
// checkpoint by adding the splitter matrix (selection reads blocks but
// allocates none, so the run directory still names every live block).
func commitSelection(cfg *Config, n *cluster.Node, man *blockio.Manifest, split [][]int64) error {
	man.Splitters = split
	if err := man.WriteFile(cfg.Checkpoint.Dir); err != nil {
		return fmt.Errorf("core: checkpoint commit, rank %d: %w", n.Rank, err)
	}
	return nil
}

// restoreRunform rebuilds the post-run-formation state from a manifest:
// the local runs, each segment placed by its run's length, refused
// unless the run fits it, and its sample share charged as runFormation
// charges it; and from their extents, each naming its own block of
// (Off+Len)·ElemSize bytes, the store's block layout and the allocator.
func restoreRunform[T any](c elem.Codec[T], n *cluster.Node, k int64, man *blockio.Manifest) ([]localRun[T], error) {
	ls, ok := n.Vol.Store().(lensStore)
	if !ok {
		return nil, fmt.Errorf("core: resume requires a durable block store on rank %d (use blockio.DurableFileStoreFactory)", n.Rank)
	}
	if man.SampleK != k {
		return nil, fmt.Errorf("core: resume: manifest SampleK %d differs from configured %d — resume with the same flags and binary as the original job", man.SampleK, k)
	}
	lens, live := map[blockio.BlockID]int{}, []blockio.BlockID{}
	locals := make([]localRun[T], len(man.Runs))
	for ri, rm := range man.Runs {
		lo, hi := segment(rm.RunLen, n.Rank, n.P)
		lr := localRun[T]{file: job.File{Extents: rm.Extents}, segStart: lo, segLen: hi - lo, runLen: rm.RunLen}
		for _, e := range rm.Extents {
			if _, dup := lens[e.ID]; dup {
				return nil, fmt.Errorf("core: resume: rank %d's manifest names block %d twice (again in run %d) — resume with the same flags and binary as the original job", n.Rank, e.ID, ri)
			}
			lens[e.ID], live = (e.Off+e.Len)*c.Size(), append(live, e.ID)
			lr.file.N += int64(e.Len)
		}
		cnt := sampleCount(lo, hi, k)
		if len(rm.Sample) != cnt*c.Size() || lr.file.N != lr.segLen {
			return nil, fmt.Errorf("core: resume: rank %d's manifest holds %d elements and %d sample bytes of run %d, whose segment [%d, %d) needs %d and %d — resume with the same flags and binary as the original job",
				n.Rank, lr.file.N, len(rm.Sample), ri, lo, hi, lr.segLen, cnt*c.Size())
		}
		lr.sample = elem.AppendDecode(c, nil, rm.Sample, cnt)
		n.Mem.MustAcquire(int64(cnt)) // held until localRunsMeta releases it
		locals[ri] = lr
	}
	ls.SetBlockLens(lens)
	n.Vol.Adopt(live)
	return locals, nil
}
