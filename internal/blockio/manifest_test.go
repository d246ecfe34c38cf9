package blockio

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestDurableFileStoreSurvivesClose: the defining property of durable
// mode — spill contents outlive the store handle (Close fsyncs instead
// of unlinking) and a re-opened store serves the same blocks once the
// block layout is restored.
func TestDurableFileStoreSurvivesClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rank.blocks")
	s, err := NewFileStore(path, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	a := bytes.Repeat([]byte{0xAA}, 64)
	b := bytes.Repeat([]byte{0xBB}, 17) // partial block
	if err := s.WriteAt(0, a); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(1, b); err != nil {
		t.Fatal(err)
	}
	lens := s.BlockLens()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("durable spill file vanished on Close: %v", err)
	}

	r, err := NewFileStore(path, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetBlockLens(lens)
	got := make([]byte, 64)
	if err := r.ReadAt(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, a) {
		t.Fatal("block 0 changed across close/reopen")
	}
	if err := r.ReadAt(1, got[:17]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:17], b) {
		t.Fatal("partial block 1 changed across close/reopen")
	}
}

// The plain file store must still clean up after itself (the durable
// behaviour is opt-in).
func TestFileStoreStillRemovesOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rank.blocks")
	s, err := NewFileStore(path, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("non-durable spill file survived Close (err=%v)", err)
	}
}

func testManifest(rank int) *Manifest {
	return &Manifest{
		JobID: "job-a", Rank: rank, P: 4, Epoch: 2,
		ElemSize: 100, BlockBytes: 1024, SampleK: 10,
		Phase:     "run formation",
		NextBlock: 7, FreeList: []int64{3},
		Blocks: []BlockLen{{ID: 0, Bytes: 1000}, {ID: 1, Bytes: 400}},
		Runs: []RunMeta{{
			SegStart: 0, SegLen: 14, RunLen: 56,
			Extents: []ExtentMeta{{ID: 0, Off: 0, Len: 10, Own: true}, {ID: 1, Off: 0, Len: 4, Own: true}},
			Sample:  []byte("0123456789"),
		}},
		SegStarts: [][]int64{{0, 14, 28, 42}},
		SegLens:   [][]int64{{14, 14, 14, 14}},
		TotalN:    56,
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := testManifest(2)
	if err := want.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.JobID != want.JobID || got.Phase != want.Phase || got.TotalN != want.TotalN ||
		len(got.Runs) != 1 || !bytes.Equal(got.Runs[0].Sample, want.Runs[0].Sample) ||
		got.Runs[0].Extents[1] != want.Runs[0].Extents[1] {
		t.Fatalf("manifest did not round-trip: %+v", got)
	}
	if err := got.Validate("job-a", 2, 4, 3, 100, 1024); err != nil {
		t.Fatalf("valid resume rejected: %v", err)
	}
	// A re-commit must atomically replace, not append.
	want.Phase = "multiway selection"
	want.Splitters = [][]int64{{0}, {14}, {28}, {42}, {56}}
	if err := want.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	got, err = LoadManifest(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Phase != "multiway selection" || len(got.Splitters) != 5 {
		t.Fatalf("re-commit not visible: %+v", got)
	}
	if _, err := os.Stat(ManifestPath(dir, 2) + ".tmp"); err == nil {
		t.Fatal("staging file left behind after publish")
	}
}

func TestManifestValidateRejections(t *testing.T) {
	m := testManifest(2)
	cases := []struct {
		name string
		err  error
	}{
		{"wrong job", m.Validate("job-b", 2, 4, 2, 100, 1024)},
		{"wrong rank", m.Validate("job-a", 1, 4, 2, 100, 1024)},
		{"wrong P", m.Validate("job-a", 2, 8, 2, 100, 1024)},
		{"newer epoch than resume", m.Validate("job-a", 2, 4, 1, 100, 1024)},
		{"elem size", m.Validate("job-a", 2, 4, 2, 16, 1024)},
		{"block size", m.Validate("job-a", 2, 4, 2, 100, 4096)},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: Validate accepted a mismatched manifest", c.name)
		}
	}
	// Same or older epoch is fine (the resume is a newer incarnation).
	if err := m.Validate("job-a", 2, 4, 2, 100, 1024); err != nil {
		t.Errorf("same-epoch resume rejected: %v", err)
	}
}

func TestManifestMissingAndRemove(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadManifest(dir, 0); !os.IsNotExist(err) {
		t.Fatalf("missing manifest: got %v, want os.IsNotExist", err)
	}
	if err := RemoveManifest(dir, 0); err != nil {
		t.Fatalf("removing a missing manifest must be a no-op, got %v", err)
	}
	m := testManifest(0)
	if err := m.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	if err := RemoveManifest(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(dir, 0); !os.IsNotExist(err) {
		t.Fatal("manifest still present after RemoveManifest")
	}
	// A torn .tmp from a crashed commit must not shadow the live name.
	if err := os.WriteFile(ManifestPath(dir, 0)+".tmp", []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(dir, 0); !os.IsNotExist(err) {
		t.Fatal("a .tmp staging file was read as a committed manifest")
	}
}

// TestVolumeAllocStateRestore: the allocator snapshot in a manifest
// must reproduce the exact alloc/free position, so blocks allocated
// after resume never collide with checkpointed ones.
func TestVolumeAllocStateRestore(t *testing.T) {
	v := NewVolume(NewMemStore(), 64, 0, testModel(), nil)
	a, b, c := v.Alloc(), v.Alloc(), v.Alloc()
	_ = a
	_ = c
	v.Free(b)
	next, free := v.AllocState()

	w := NewVolume(NewMemStore(), 64, 0, testModel(), nil)
	w.RestoreAlloc(next, free)
	if got := w.Alloc(); got != b {
		t.Fatalf("restored volume allocated %d first, want the freed block %d", got, b)
	}
	if got := w.Alloc(); got != 3 {
		t.Fatalf("restored volume continued at %d, want 3", got)
	}
	if w.Used() != 4 {
		t.Fatalf("restored volume reports %d used blocks, want 4", w.Used())
	}
}
