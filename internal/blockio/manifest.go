package blockio

// The durable half of the checkpoint/restart plane: a per-rank
// manifest.json describing everything a restarted rank needs to adopt
// its spill file and resume the sort from the last committed phase —
// job identity, phase epoch, the rank's run directory (each run's
// length, which places the rank's segment of it, the segment's extents
// and its encoded sample share) and, once selection has committed, the
// splitter matrix. The store's block layout and allocator are not
// stored: at either commit a rank's live blocks are exactly the blocks
// its extents name, so a resumed rank derives both from them.
// Manifests are tiny (the runs and splitters are O(R·P) numbers; the
// sample is bounded by the memory budget's sample share), which is what
// makes checkpointing after run formation and selection nearly free
// compared to re-reading the input.
//
// Writes are crash-atomic, the same discipline as part files:
// rank-%03d.manifest.json.tmp is written, fsync'd and renamed over the
// live name, then the directory is fsync'd — a reader sees either the
// previous manifest or the new one, never a torn mix.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Extent is a contiguous range of elements inside one disk block:
// elements [Off, Off+Len) of block ID. Own marks the holder as the
// block's unique owner (it may free the block once consumed); the
// all-to-all relabels kept data into output files by trimming extents,
// and a block whose other part was sent away is not freeable. core's
// files are lists of them, and a manifest holds the run directory's own.
type Extent struct {
	ID  BlockID `json:"id"`
	Off int     `json:"off"`
	Len int     `json:"len"`
	Own bool    `json:"own"`
}

// RunMeta is one run's entry in a rank's run directory: the run's
// length, the extents holding the rank's segment of it and the segment's
// sample share (encoded elements at its run positions ≡ 0 (mod SampleK)),
// which a resumed fleet gathers again to re-bootstrap selection.
type RunMeta struct {
	RunLen  int64    `json:"runLen"`
	Extents []Extent `json:"extents"`
	Sample  []byte   `json:"sample,omitempty"`
}

// Manifest is one rank's durable phase checkpoint.
type Manifest struct {
	// Job identity and incarnation: a resumed rank must present the
	// same JobID and an Epoch no older than the manifest's.
	JobID string `json:"jobID"`
	Rank  int    `json:"rank"`
	P     int    `json:"p"`
	Epoch int    `json:"epoch"`

	// Geometry guards: a manifest written under different parameters
	// describes different blocks and must not be resumed from.
	ElemSize   int   `json:"elemSize"`
	BlockBytes int   `json:"blockBytes"`
	SampleK    int64 `json:"sampleK"`

	// Runs is the run directory, committed after run formation.
	Runs []RunMeta `json:"runs,omitempty"`

	// Splitters is the exact splitter matrix (P+1 rows of R positions,
	// identical on every rank); set, it marks the selection commit.
	Splitters [][]int64 `json:"splitters,omitempty"`
}

// ManifestPath returns dir's manifest file name for one rank.
func ManifestPath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("rank-%03d.manifest.json", rank))
}

// WriteFile commits the manifest to dir crash-atomically: .tmp, fsync,
// rename, directory fsync.
func (m *Manifest) WriteFile(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("blockio: manifest dir: %w", err)
	}
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return fmt.Errorf("blockio: manifest encode: %w", err)
	}
	path := ManifestPath(dir, m.Rank)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("blockio: manifest: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("blockio: manifest write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("blockio: manifest sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("blockio: manifest close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("blockio: manifest publish: %w", err)
	}
	return SyncDir(dir)
}

// LoadManifest reads one rank's manifest from dir. A missing manifest
// returns an error satisfying os.IsNotExist — the "no checkpoint yet"
// case resume treats as a fresh start.
func LoadManifest(dir string, rank int) (*Manifest, error) {
	data, err := os.ReadFile(ManifestPath(dir, rank))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("blockio: manifest %s: %w", ManifestPath(dir, rank), err)
	}
	if m.Rank != rank {
		return nil, fmt.Errorf("blockio: manifest %s names rank %d", ManifestPath(dir, rank), m.Rank)
	}
	return &m, nil
}

// RemoveManifest deletes one rank's manifest (a fresh durable run
// clears stale state so a crash before its first commit restarts from
// scratch instead of adopting a dead incarnation's checkpoint).
func RemoveManifest(dir string, rank int) error {
	err := os.Remove(ManifestPath(dir, rank))
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}

// Validate checks a loaded manifest against the resuming job's
// identity and geometry.
func (m *Manifest) Validate(jobID string, rank, p, epoch, elemSize, blockBytes int) error {
	switch {
	case m.JobID != jobID:
		return fmt.Errorf("blockio: manifest is for job %q, resuming job %q", m.JobID, jobID)
	case m.Rank != rank || m.P != p:
		return fmt.Errorf("blockio: manifest is rank %d of %d PEs, resuming rank %d of %d", m.Rank, m.P, rank, p)
	case m.Epoch > epoch:
		return fmt.Errorf("blockio: manifest epoch %d is newer than resume epoch %d", m.Epoch, epoch)
	case m.ElemSize != elemSize || m.BlockBytes != blockBytes:
		return fmt.Errorf("blockio: manifest geometry (elem %d, block %d) differs from job (elem %d, block %d)",
			m.ElemSize, m.BlockBytes, elemSize, blockBytes)
	}
	return nil
}

// SyncDir fsyncs a directory, making a just-renamed file durable — the
// closing step of every .tmp→rename publish (manifests, part files).
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
