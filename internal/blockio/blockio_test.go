package blockio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"demsort/internal/vtime"
)

func testModel() vtime.CostModel {
	m := vtime.Default()
	m.DiskJitter = 0
	return m
}

func TestMemStoreRoundTrip(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	data := []byte("hello block")
	if err := s.WriteAt(3, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := s.ReadAt(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
	// Writes must copy: mutating the source must not change the store.
	data[0] = 'X'
	if err := s.ReadAt(3, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 'h' {
		t.Fatal("store aliased caller buffer")
	}
}

func TestMemStoreReadUnwritten(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	if err := s.ReadAt(9, make([]byte, 1)); err == nil {
		t.Fatal("expected error reading unwritten block")
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.dat")
	s, err := NewFileStore(path, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a := bytes.Repeat([]byte{0xAA}, 64)
	b := bytes.Repeat([]byte{0xBB}, 17) // partial block
	if err := s.WriteAt(0, a); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(5, b); err != nil {
		t.Fatal(err)
	}
	gotA := make([]byte, 64)
	if err := s.ReadAt(0, gotA); err != nil {
		t.Fatal(err)
	}
	gotB := make([]byte, 17)
	if err := s.ReadAt(5, gotB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotA, a) || !bytes.Equal(gotB, b) {
		t.Fatal("file store roundtrip mismatch")
	}
	if err := s.WriteAt(1, make([]byte, 65)); err == nil {
		t.Fatal("oversized write must fail")
	}
}

func newTestVolume() *Volume {
	clock := vtime.NewClock()
	return NewVolume(NewMemStore(), 1024, 0, testModel(), clock)
}

func TestVolumeAllocFreeReuse(t *testing.T) {
	v := newTestVolume()
	a := v.Alloc()
	b := v.Alloc()
	if a == b {
		t.Fatal("distinct allocations must differ")
	}
	if v.Used() != 2 {
		t.Fatalf("used %d", v.Used())
	}
	v.Free(a)
	c := v.Alloc()
	if c != a {
		t.Fatalf("freed block should be reused: got %d want %d", c, a)
	}
	if v.PeakUsed() != 2 {
		t.Fatalf("peak %d", v.PeakUsed())
	}
}

func TestVolumeReadWriteCountsAndClock(t *testing.T) {
	v := newTestVolume()
	id := v.Alloc()
	data := bytes.Repeat([]byte{7}, 1024)
	v.WriteAsync(id, data)
	if v.Clock().Now() != 0 {
		t.Fatal("async write must not advance the clock")
	}
	got := make([]byte, 1024)
	h := v.ReadAsync(id, got)
	v.Wait(h)
	if v.Clock().Now() <= 0 {
		t.Fatal("waiting for a read must advance the clock")
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch")
	}
	_, stats := v.Clock().Stats()
	st := stats["init"]
	if st.BlocksWritten != 1 || st.BlocksRead != 1 || st.BytesRead != 1024 || st.BytesWritten != 1024 {
		t.Fatalf("counters %+v", st)
	}
	if st.IOTime <= 0 {
		t.Fatal("io time not accounted")
	}
}

func TestVolumeOverlapHidesIO(t *testing.T) {
	// Issue a read, do CPU work longer than the transfer, then wait:
	// the clock must show the CPU time only (I/O fully hidden).
	v := newTestVolume()
	id := v.Alloc()
	v.WriteAsync(id, make([]byte, 1024))
	v.Drain()
	start := v.Clock().Now()
	h := v.ReadAsync(id, make([]byte, 1024))
	dur := float64(h) - start
	v.Clock().AddCPU(10 * dur)
	v.Wait(h)
	if got := v.Clock().Now() - start; got != 10*dur {
		t.Fatalf("wall %v, want %v (I/O hidden by CPU)", got, 10*dur)
	}
}

// On a synchronous volume every ReadAsync/WriteAsync leaves the device
// idle at the PE's clock, and the I/O TestVolumeOverlapHidesIO hides is
// charged in full as blocked time: the same issue / compute / Wait
// sequence, no overlap.
func TestVolumeSynchronous(t *testing.T) {
	v := newTestVolume()
	v.SetSynchronous(true)
	idle := func(op string) {
		t.Helper()
		if busy, now := v.disk.BusyUntil(), v.Clock().Now(); busy > now {
			t.Fatalf("after %s the device is busy until %v, clock at %v", op, busy, now)
		}
	}
	id := v.Alloc()
	v.WriteAsync(id, make([]byte, 1024))
	idle("WriteAsync")
	written := v.Clock().Now()
	if written <= 0 || v.Clock().Cur().BlockedTime != written {
		t.Fatalf("write: clock %v, blocked %v — the transfer must be waited out and charged", written, v.Clock().Cur().BlockedTime)
	}
	v.Drain() // nothing left to wait for
	if v.Clock().Now() != written {
		t.Fatal("Drain advanced a synchronous volume's clock")
	}

	start := v.Clock().Now()
	h := v.ReadAsync(id, make([]byte, 1024))
	idle("ReadAsync")
	dur := float64(h) - start
	if dur <= 0 || v.Clock().Now() != float64(h) {
		t.Fatalf("read returned at %v, completion %v", v.Clock().Now(), float64(h))
	}
	v.Clock().AddCPU(10 * dur)
	v.Wait(h)
	if got := v.Clock().Now() - start; got != 11*dur {
		t.Fatalf("wall %v, want %v (I/O then CPU, nothing hidden)", got, 11*dur)
	}
	if got := v.Clock().Cur().BlockedTime - written; got != dur {
		t.Fatalf("read charged %v blocked time, want the whole transfer %v", got, dur)
	}

	// Switching back restores asynchronous issue.
	v.SetSynchronous(false)
	start = v.Clock().Now()
	v.ReadAsync(id, make([]byte, 1024))
	if v.Clock().Now() != start {
		t.Fatal("asynchronous ReadAsync advanced the clock")
	}
}

func TestVolumeDrain(t *testing.T) {
	v := newTestVolume()
	id := v.Alloc()
	v.WriteAsync(id, make([]byte, 1024))
	v.WriteAsync(id, make([]byte, 1024))
	v.Drain()
	if v.Clock().Now() <= 0 {
		t.Fatal("drain must advance to device idle time")
	}
}

func TestFileStoreFactoryPerRankSpill(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill") // factory must create it
	factory := FileStoreFactory(dir, 64)
	stores := make([]Store, 3)
	for rank := range stores {
		s, err := factory(rank)
		if err != nil {
			t.Fatal(err)
		}
		stores[rank] = s
		if err := s.WriteAt(0, []byte{byte(rank), byte(rank + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("spill dir holds %d files, want one per rank (3)", len(files))
	}
	for rank, s := range stores {
		got := make([]byte, 2)
		if err := s.ReadAt(0, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(rank) || got[1] != byte(rank+1) {
			t.Fatalf("rank %d read back %v", rank, got)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	files, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("Close must remove the block files; %d left", len(files))
	}
}

// FillFrom must lay the stream out as chunk-sized blocks (short tail),
// read back byte-identical, and surface short streams as errors while
// still returning the spans already written so they can be freed.
func TestVolumeFillFrom(t *testing.T) {
	clock := vtime.NewClock()
	vol := NewVolume(NewMemStore(), 256, 0, vtime.Default(), clock)
	data := make([]byte, 1000) // chunk 240 -> 4 full spans + one 40-byte tail
	for i := range data {
		data[i] = byte(i * 31)
	}
	spans, err := vol.FillFrom(bytes.NewReader(data), int64(len(data)), 240)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 5 || spans[4].Bytes != 40 {
		t.Fatalf("spans %+v, want 4x240 + 40", spans)
	}
	var got []byte
	buf := make([]byte, 240)
	for _, sp := range spans {
		vol.ReadWait(sp.ID, buf[:sp.Bytes])
		got = append(got, buf[:sp.Bytes]...)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-back differs from the streamed input")
	}

	// Short stream: error plus the spans written so far.
	spans, err = vol.FillFrom(bytes.NewReader(data[:500]), int64(len(data)), 240)
	if err == nil {
		t.Fatal("short stream must fail")
	}
	if len(spans) != 2 {
		t.Fatalf("short stream returned %d spans, want the 2 complete ones", len(spans))
	}

	// Oversized chunk is rejected up front.
	if _, err := vol.FillFrom(bytes.NewReader(data), 10, 4096); err == nil {
		t.Fatal("chunk larger than the block size must be rejected")
	}
}

// FillFrom against the loop it pipelines: read a chunk, allocate a
// block, write it. Spans, allocation order (a pre-seeded free list makes
// it non-trivial), traffic counters and modelled time must be identical,
// for a complete stream and for one that ends early — where the complete
// chunks are returned alongside the error and the torn one is not.
func TestVolumeFillFromMatchesReferenceLoop(t *testing.T) {
	const chunk = 240
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i * 17)
	}
	newVol := func() *Volume {
		v := NewVolume(NewMemStore(), 256, 0, testModel(), vtime.NewClock())
		ids := []BlockID{v.Alloc(), v.Alloc(), v.Alloc()}
		v.Free(ids[1])
		v.Free(ids[0]) // allocation order is now 0, 1, 3, 4, …
		return v
	}
	reference := func(v *Volume, r io.Reader, total int64) ([]Span, error) {
		var spans []Span
		buf := make([]byte, chunk)
		for rem := total; rem > 0; {
			b := buf[:min(int64(chunk), rem)]
			if _, err := io.ReadFull(r, b); err != nil {
				return spans, err
			}
			id := v.Alloc()
			v.WriteAsync(id, b)
			spans = append(spans, Span{ID: id, Bytes: len(b)})
			rem -= int64(len(b))
		}
		return spans, nil
	}
	for _, avail := range []int{len(data), 500, 0} {
		want, have := newVol(), newVol()
		wantSpans, wantErr := reference(want, bytes.NewReader(data[:avail]), int64(len(data)))
		haveSpans, haveErr := have.FillFrom(bytes.NewReader(data[:avail]), int64(len(data)), chunk)
		if (wantErr == nil) != (haveErr == nil) {
			t.Fatalf("%d of %d bytes available: reference error %v, FillFrom error %v", avail, len(data), wantErr, haveErr)
		}
		if wantErr != nil && !errors.Is(haveErr, wantErr) {
			t.Fatalf("short read: FillFrom error %v does not wrap %v", haveErr, wantErr)
		}
		if !reflect.DeepEqual(haveSpans, wantSpans) {
			t.Fatalf("%d bytes available: spans %+v, reference %+v", avail, haveSpans, wantSpans)
		}
		have.Drain()
		want.Drain()
		if *have.Clock().Cur() != *want.Clock().Cur() || have.Clock().Now() != want.Clock().Now() {
			t.Fatalf("%d bytes available: accounting differs from the reference loop", avail)
		}
		buf := make([]byte, chunk)
		off := 0
		for _, sp := range haveSpans {
			have.ReadWait(sp.ID, buf[:sp.Bytes])
			if !bytes.Equal(buf[:sp.Bytes], data[off:off+sp.Bytes]) {
				t.Fatalf("span at byte %d read back wrong", off)
			}
			off += sp.Bytes
		}
	}
}

// failingStore rejects the failAt-th write, which Volume turns into a
// panic on the calling goroutine.
type failingStore struct {
	*MemStore
	writes, failAt int
}

func (s *failingStore) WriteAt(id BlockID, src []byte) error {
	if s.writes++; s.writes == s.failAt {
		return errors.New("disk full")
	}
	return s.MemStore.WriteAt(id, src)
}

// endless never runs dry, so FillFrom's reader goroutine is always
// either reading or blocked handing a chunk over.
type endless struct{}

func (endless) Read(p []byte) (int, error) { return len(p), nil }

// A panic on the consuming side (the store failing under WriteAsync)
// must not strand FillFrom's reader goroutine.
func TestVolumeFillFromPanicLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	v := NewVolume(&failingStore{MemStore: NewMemStore(), failAt: 3}, 256, 0, testModel(), vtime.NewClock())
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the failing store must panic the fill")
			}
		}()
		v.FillFrom(endless{}, 1<<20, 256)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the fill, %d after its panic: the reader is stranded", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
