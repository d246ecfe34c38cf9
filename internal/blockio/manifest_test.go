package blockio

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestDurableFileStoreSurvivesClose: the defining property of durable
// mode — spill contents outlive the store handle (Close fsyncs instead
// of unlinking) and a re-opened store serves the same blocks once it is
// told the block layout, refusing a read of one byte more than a block
// holds.
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
	r.SetBlockLens(map[BlockID]int{0: 64, 1: 17})
	got := make([]byte, 65)
	if err := r.ReadAt(1, got[:18]); err == nil {
		t.Fatal("read 18 bytes of a block that holds 17")
	}
	if err := r.ReadAt(0, got); err == nil {
		t.Fatal("read 65 bytes of a block that holds 64")
	}
	got = got[:64]
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

// TestFileStoreShortReadFails: a durable file truncated behind its
// block layout (an adopted rank file shorter than its manifest says)
// fails the read, naming the block, instead of returning stale bytes.
func TestFileStoreShortReadFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rank.blocks")
	s, err := NewFileStore(path, 128, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WriteAt(0, bytes.Repeat([]byte{0xCC}, 100)); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 40); err != nil {
		t.Fatal(err)
	}
	err = s.ReadAt(0, make([]byte, 100))
	if err == nil || !strings.Contains(err.Error(), "block 0") {
		t.Fatalf("short read returned %v, want an error naming block 0", err)
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
		Runs: []RunMeta{{
			RunLen:  56,
			Extents: []Extent{{ID: 0, Off: 0, Len: 10, Own: true}, {ID: 1, Off: 0, Len: 4, Own: true}},
			Sample:  []byte("0123456789"),
		}},
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
	if got.JobID != want.JobID || got.Splitters != nil ||
		len(got.Runs) != 1 || got.Runs[0].RunLen != want.Runs[0].RunLen || !bytes.Equal(got.Runs[0].Sample, want.Runs[0].Sample) ||
		got.Runs[0].Extents[1] != want.Runs[0].Extents[1] {
		t.Fatalf("manifest did not round-trip: %+v", got)
	}
	if err := got.Validate("job-a", 2, 4, 3, 100, 1024); err != nil {
		t.Fatalf("valid resume rejected: %v", err)
	}
	// A re-commit must atomically replace, not append.
	want.Splitters = [][]int64{{0}, {14}, {28}, {42}, {56}}
	if err := want.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	got, err = LoadManifest(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Splitters) != 5 {
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

// TestVolumeAllocStateRestore: a volume adopting a manifest's live
// blocks hands out every lower block no extent names before it goes on
// past the largest, so blocks allocated after resume never collide with
// checkpointed ones.
func TestVolumeAllocStateRestore(t *testing.T) {
	w := NewVolume(NewMemStore(), 64, 0, testModel(), nil)
	w.Alloc()
	w.Adopt([]BlockID{5, 0, 2})
	if w.Used() != 3 {
		t.Fatalf("adopting volume reports %d used blocks, want 3", w.Used())
	}
	var got []BlockID
	for range 4 {
		got = append(got, w.Alloc())
	}
	if !slices.Equal(got, []BlockID{1, 3, 4, 6}) {
		t.Fatalf("adopting volume allocated %v, want the free 1, 3, 4 and then 6", got)
	}
	if w.Used() != 7 {
		t.Fatalf("adopting volume reports %d used blocks after 4 allocations, want 7", w.Used())
	}
}
