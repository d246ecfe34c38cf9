// Package blockio provides the external-memory substrate: fixed-size
// block stores (RAM-backed and file-backed) and per-PE Volumes that
// stripe blocks over a node's disk array, track every byte of traffic,
// support asynchronous reads/writes against the virtual-time model,
// and recycle freed blocks so sorting can run (nearly) in place on
// disk, as in §IV-E of the paper.
package blockio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"demsort/internal/bufpool"
	"demsort/internal/vtime"
)

// BlockID names one block within a Volume.
type BlockID int64

// Store is raw block storage addressed by BlockID. Implementations
// must copy data on write (callers reuse buffers).
type Store interface {
	// ReadAt fills dst with the first len(dst) bytes of block id.
	ReadAt(id BlockID, dst []byte) error
	// WriteAt stores src as the content of block id.
	WriteAt(id BlockID, src []byte) error
	// Close releases resources.
	Close() error
}

// MemStore is a RAM-backed Store used by tests, benchmarks and the
// figure harness (the simulated cluster's "disks").
type MemStore struct {
	mu     sync.RWMutex
	blocks map[BlockID][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{blocks: map[BlockID][]byte{}}
}

// ReadAt implements Store. The copy happens under the lock: WriteAt
// rewrites recycled block buffers in place, so a snapshot taken under
// RLock is not immutable once the lock is released.
func (s *MemStore) ReadAt(id BlockID, dst []byte) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.blocks[id]
	if !ok {
		return fmt.Errorf("blockio: read of unwritten block %d", id)
	}
	if len(dst) > len(b) {
		return fmt.Errorf("blockio: block %d holds %d bytes, want %d", id, len(b), len(dst))
	}
	copy(dst, b)
	return nil
}

// WriteAt implements Store. Rewrites of a recycled block reuse its
// previous buffer when it is large enough; fresh buffers come from the
// shared arena, so steady-state writes allocate nothing.
func (s *MemStore) WriteAt(id BlockID, src []byte) error {
	s.mu.Lock()
	b := s.blocks[id]
	if cap(b) < len(src) {
		if b != nil {
			bufpool.Put(b)
		}
		b = bufpool.Get(len(src))
	}
	b = b[:len(src)]
	copy(b, src)
	s.blocks[id] = b
	s.mu.Unlock()
	return nil
}

// Close implements Store, returning the block buffers to the arena.
func (s *MemStore) Close() error {
	s.mu.Lock()
	for _, b := range s.blocks {
		bufpool.Put(b)
	}
	s.blocks = nil
	s.mu.Unlock()
	return nil
}

// FileStore is a file-backed Store: block id lives at offset
// id·blockBytes of a single file. It exists so integration tests and
// the CLI can sort data that genuinely does not fit in memory. Besides
// block-at-a-time calls it reads and writes a stretch of consecutive
// blocks in one call (ReadRange, WriteRange: one pread or pwrite). It
// knows how many bytes each block holds — what was written to it, or
// for an adopted file what SetBlockLens says — and refuses a read of
// more.
type FileStore struct {
	f          *os.File
	blockBytes int
	keep       bool  // durable mode: survive Close (checkpoint/restart)
	lens       []int // stored length per BlockID, unwritten past the end or where -1
	mu         sync.Mutex
}

// unwritten marks a block in FileStore.lens that holds nothing readable.
const unwritten = -1

// NewFileStore opens a file-backed store at path with the given block
// capacity in bytes. A transient store (durable false) truncates the
// file and removes it on Close — a spill store. A durable one never
// truncates and its file survives Close — the adopt/keep mode of the
// checkpoint/restart plane: a fresh store starts with no readable
// blocks; a store adopted after a crash is told its block layout
// (SetBlockLens), which core derives from the extents of the rank's
// manifest.
func NewFileStore(path string, blockBytes int, durable bool) (*FileStore, error) {
	flags := os.O_RDWR | os.O_CREATE
	if !durable {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blockio: %w", err)
	}
	return &FileStore{f: f, blockBytes: blockBytes, keep: durable}, nil
}

// ReadAt implements Store.
func (s *FileStore) ReadAt(id BlockID, dst []byte) error {
	return s.ReadRange(id, []int{len(dst)}, dst)
}

// WriteAt implements Store.
func (s *FileStore) WriteAt(id BlockID, src []byte) error {
	return s.WriteRange(id, []int{len(src)}, src)
}

// ReadRange reads the stretch of blocks first, first+1, … in one call:
// block first+i's first lens[i] bytes land at buf[i·blockBytes:], and
// between two blocks buf gets what the file holds there (the earlier
// block's padding), so buf spans the stretch. Every block must hold its
// lens[i] bytes.
func (s *FileStore) ReadRange(first BlockID, lens []int, buf []byte) error {
	if err := s.readable(first, lens); err != nil {
		return err
	}
	dst := buf[:s.span(lens)]
	// A short read is an error even at EOF: an adopted file shorter than
	// its manifest says must not hand back stale buffer bytes.
	if got, err := s.f.ReadAt(dst, int64(first)*int64(s.blockBytes)); got < len(dst) {
		return fmt.Errorf("blockio: block %d: read %d of the %d bytes from block %d on: %w",
			first+BlockID(got/s.blockBytes), got, len(dst), first, err)
	}
	return nil
}

// WriteRange stores the stretch of blocks first, first+1, … in one call:
// block first+i gets the lens[i] bytes at buf[i·blockBytes:], and the
// padding between two blocks whatever buf holds there.
func (s *FileStore) WriteRange(first BlockID, lens []int, buf []byte) error {
	for _, n := range lens {
		if n > s.blockBytes {
			return fmt.Errorf("blockio: write of %d bytes into %d-byte blocks", n, s.blockBytes)
		}
	}
	if _, err := s.f.WriteAt(buf[:s.span(lens)], int64(first)*int64(s.blockBytes)); err != nil {
		return fmt.Errorf("blockio: %w", err)
	}
	s.mu.Lock()
	for end := int(first) + len(lens); len(s.lens) < end; {
		s.lens = append(s.lens, unwritten)
	}
	copy(s.lens[first:], lens)
	s.mu.Unlock()
	return nil
}

// readable checks that every block of a stretch holds the bytes a read
// wants of it.
func (s *FileStore) readable(first BlockID, lens []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, n := range lens {
		if id := first + BlockID(i); int(id) >= len(s.lens) || s.lens[id] == unwritten {
			return fmt.Errorf("blockio: read of unwritten block %d", id)
		} else if n > s.lens[id] {
			return fmt.Errorf("blockio: block %d holds %d bytes, want %d", id, s.lens[id], n)
		}
	}
	return nil
}

// span is the bytes a stretch of blocks of lengths lens covers in the
// file: every block's stride but the last's, and the last block's data.
func (s *FileStore) span(lens []int) int {
	return (len(lens)-1)*s.blockBytes + lens[len(lens)-1]
}

// Close implements Store. Transient stores remove their file; durable
// ones sync and keep it, so spilled data survives
// a Close-on-abort and a restarted rank can adopt it.
func (s *FileStore) Close() error {
	if s.keep {
		s.f.Sync() // best effort: Close-on-abort must not mask the abort
		return s.f.Close()
	}
	name := s.f.Name()
	if err := s.f.Close(); err != nil {
		return err
	}
	return os.Remove(name)
}

// Sync flushes the backing file to stable storage — called before a
// checkpoint manifest is committed, so the manifest never describes
// blocks that are not durably on disk.
func (s *FileStore) Sync() error { return s.f.Sync() }

// SetBlockLens gives an adopted store its block layout — block id holds
// lens[id] bytes, every other block nothing readable — replacing
// whatever the store knew before.
func (s *FileStore) SetBlockLens(lens map[BlockID]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lens = s.lens[:0]
	for id, n := range lens {
		for len(s.lens) <= int(id) {
			s.lens = append(s.lens, unwritten)
		}
		s.lens[id] = n
	}
}

// FileStoreFactory returns a per-rank store constructor that backs
// each PE's volume with a transient FileStore at dir/rank-%03d.blocks —
// the spill directory of a file-backed worker. The directory is created
// on first use; the block files are removed on Close, so a clean run
// leaves dir empty. This is what demsort's -store=file plugs into
// core.Config.NewStore and tcp.Config.NewStore: sorted data streams
// through disk blocks instead of having to fit in RAM.
func FileStoreFactory(dir string, blockBytes int) func(rank int) (Store, error) {
	return fileStoreFactory(dir, blockBytes, false)
}

// DurableFileStoreFactory is FileStoreFactory's adopt/keep counterpart
// for checkpointed jobs: block files are created if absent, adopted if
// present, and always survive Close. A resumed rank's block layout is
// derived from its manifest's extents (core sets it via SetBlockLens); a
// fresh run simply overwrites from block 0.
func DurableFileStoreFactory(dir string, blockBytes int) func(rank int) (Store, error) {
	return fileStoreFactory(dir, blockBytes, true)
}

func fileStoreFactory(dir string, blockBytes int, durable bool) func(rank int) (Store, error) {
	return func(rank int) (Store, error) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("blockio: spill dir: %w", err)
		}
		return NewFileStore(filepath.Join(dir, fmt.Sprintf("rank-%03d.blocks", rank)), blockBytes, durable)
	}
}

// Handle is the virtual completion time of an asynchronous I/O.
type Handle float64

// Volume is one PE's view of its disk array: block allocation with a
// free list (in-place operation; a resumed PE's is rebuilt from its
// live blocks, Adopt), asynchronous reads/writes accounted
// against the PE's clock and disk device, and traffic counters.
//
// A Volume is owned by its PE's goroutine; no other goroutine calls it.
type Volume struct {
	store      Store
	blockBytes int
	rank       int
	model      vtime.CostModel
	clock      *vtime.Clock
	disk       *vtime.Device

	// sync makes every ReadAsync/WriteAsync stall the clock to its own
	// completion (SetSynchronous): the "no asynchronous I/O" machine.
	sync bool

	next     BlockID
	freeList []BlockID
	used     int64
	peakUsed int64
}

// NewVolume creates a volume of blockBytes-sized blocks on store,
// accounting against clock with the given model and node rank.
func NewVolume(store Store, blockBytes, rank int, model vtime.CostModel, clock *vtime.Clock) *Volume {
	return &Volume{
		store:      store,
		blockBytes: blockBytes,
		rank:       rank,
		model:      model,
		clock:      clock,
		disk:       &vtime.Device{},
	}
}

// SetSynchronous switches asynchronous I/O off (or back on): while
// set, ReadAsync and WriteAsync stall the PE's clock until the transfer
// has completed before they return, so the device is never busy behind
// the PE's back and every I/O second is blocked time. Callers are
// written once, in their overlapped form (issue, compute, Wait); this
// switch is how the §IV-E overlap ablation turns the overlap off
// without a second copy of any of them.
func (v *Volume) SetSynchronous(on bool) { v.sync = on }

// BlockBytes returns the block size in bytes.
func (v *Volume) BlockBytes() int { return v.blockBytes }

// Clock returns the owning PE's clock.
func (v *Volume) Clock() *vtime.Clock { return v.clock }

// Alloc reserves a block, reusing freed ones first (this is what makes
// the sort in-place: phase outputs recycle the blocks freed by
// consuming their inputs).
func (v *Volume) Alloc() BlockID {
	v.used++
	if v.used > v.peakUsed {
		v.peakUsed = v.used
	}
	if n := len(v.freeList); n > 0 {
		id := v.freeList[n-1]
		v.freeList = v.freeList[:n-1]
		return id
	}
	id := v.next
	v.next++
	return id
}

// Free returns a block to the free list.
func (v *Volume) Free(id BlockID) {
	v.used--
	v.freeList = append(v.freeList, id)
}

// Used returns the number of live blocks.
func (v *Volume) Used() int64 { return v.used }

// PeakUsed returns the high-water mark of live blocks, used to verify
// the paper's in-place bound (input size + R·P′ + P + 1 blocks).
func (v *Volume) PeakUsed() int64 { return v.peakUsed }

// ResetPeak restarts peak tracking from the current usage.
func (v *Volume) ResetPeak() { v.peakUsed = v.used }

// WriteAsync stores src as block id immediately (real data) and queues
// the virtual transfer on the disk device without blocking the clock;
// Drain (or a later dependent read's Wait) realises the time.
func (v *Volume) WriteAsync(id BlockID, src []byte) Handle {
	must(v.store.WriteAt(id, src))
	return v.IssueWrite(len(src))
}

// ReadAsync fetches block id into dst immediately (real data) and
// returns the virtual completion time; call Wait before using the data
// so the clock reflects the transfer.
func (v *Volume) ReadAsync(id BlockID, dst []byte) Handle {
	must(v.store.ReadAt(id, dst))
	return v.IssueRead(len(dst))
}

// IssueRead queues the transfer of an n-byte read on the disk device,
// charges it to the current phase and returns its handle, exactly as
// ReadAsync accounts a read of n bytes — but moves no data: the caller
// reads the bytes itself, whenever its buffer is free (an input read
// where it lies, job.Input, or a stretch of blocks, ReadRange).
func (v *Volume) IssueRead(n int) Handle {
	st := v.clock.Cur()
	st.BytesRead, st.BlocksRead = st.BytesRead+int64(n), st.BlocksRead+1
	return v.issue(n)
}

// IssueWrite is IssueRead's counterpart: it accounts an n-byte block
// write as WriteAsync does and moves no data (WriteRange does).
func (v *Volume) IssueWrite(n int) Handle {
	st := v.clock.Cur()
	st.BytesWritten, st.BlocksWritten = st.BytesWritten+int64(n), st.BlocksWritten+1
	return v.issue(n)
}

// issue queues an n-byte transfer on the disk device and charges its
// time to the current phase.
func (v *Volume) issue(n int) Handle {
	dur := v.model.DiskDur(v.rank, n)
	v.clock.Cur().IOTime += dur
	return v.issued(v.disk.Acquire(v.clock.Now(), dur))
}

// rangeStore is a Store that moves a stretch of consecutive blocks in
// one call, block first+i's first lens[i] bytes at buf[i·BlockBytes:]
// (FileStore).
type rangeStore interface {
	ReadRange(first BlockID, lens []int, buf []byte) error
	WriteRange(first BlockID, lens []int, buf []byte) error
}

// ReadRange fetches the data of the stretch of blocks first, first+1, …:
// block first+i's first lens[i] bytes into buf[i·BlockBytes:] — one
// store call on a store that takes stretches, one per block otherwise.
// It accounts nothing: each block's read is issued on its own
// (IssueRead), so the counters, the disk time and the clock are those of
// block-at-a-time reads.
func (v *Volume) ReadRange(first BlockID, lens []int, buf []byte) {
	if rs, ok := v.store.(rangeStore); ok {
		must(rs.ReadRange(first, lens, buf))
		return
	}
	for i, n := range lens {
		must(v.store.ReadAt(first+BlockID(i), buf[i*v.blockBytes:][:n]))
	}
}

// WriteRange is ReadRange's counterpart: it stores the stretch, each
// block's write issued on its own (IssueWrite).
func (v *Volume) WriteRange(first BlockID, lens []int, buf []byte) {
	if rs, ok := v.store.(rangeStore); ok {
		must(rs.WriteRange(first, lens, buf))
		return
	}
	for i, n := range lens {
		must(v.store.WriteAt(first+BlockID(i), buf[i*v.blockBytes:][:n]))
	}
}

// must panics on a store error: a simulation substrate failure, not a
// user error.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// issued turns a queued transfer's completion time into its handle,
// waiting it out first on a synchronous volume.
func (v *Volume) issued(done float64) Handle {
	if v.sync {
		v.stallTo(done)
	}
	return Handle(done)
}

// Wait advances the PE's clock to the completion of h; any jump is a
// disk stall and counts against the phase's overlap ratio.
func (v *Volume) Wait(h Handle) { v.stallTo(float64(h)) }

// ReadWait is ReadAsync immediately followed by Wait.
func (v *Volume) ReadWait(id BlockID, dst []byte) {
	v.Wait(v.ReadAsync(id, dst))
}

// Drain blocks (virtually) until all queued I/O has completed; phases
// call it before their closing barrier so written data is on disk.
func (v *Volume) Drain() { v.stallTo(v.disk.BusyUntil()) }

// stallTo advances the clock to t, charging the jump as blocked time:
// a PE waiting on its disk is exactly what the overlapped pipelines
// hide, so the per-phase overlap ratio must see it.
func (v *Volume) stallTo(t float64) {
	entry := v.clock.Now()
	v.clock.AdvanceTo(t)
	if t > entry {
		v.clock.Cur().BlockedTime += t - entry
	}
}

// Store exposes the underlying store (used when relabelling blocks
// between logical files without I/O).
func (v *Volume) Store() Store { return v.store }

// Adopt rebuilds the allocator of an adopted store from its live blocks:
// allocation goes on one past the largest, and every lower block that is
// not live is free — the blocks a checkpointed phase had freed, and any
// written after the checkpoint, which a resumed run simply overwrites.
// Free blocks are handed out lowest first.
func (v *Volume) Adopt(live []BlockID) {
	isLive := map[BlockID]bool{}
	v.next = 0
	for _, id := range live {
		isLive[id], v.next = true, max(v.next, id+1)
	}
	v.freeList = v.freeList[:0]
	for id := v.next - 1; id >= 0; id-- {
		if !isLive[id] {
			v.freeList = append(v.freeList, id)
		}
	}
	v.used = int64(len(live))
	v.peakUsed = max(v.peakUsed, v.used)
}

// syncer is the optional durability hook of a Store (FileStore's
// fsync); SyncStore is a no-op on stores without one.
type syncer interface{ Sync() error }

// SyncStore flushes the underlying store to stable storage if it
// supports it — the write barrier before a checkpoint commit.
func (v *Volume) SyncStore() error {
	if s, ok := v.store.(syncer); ok {
		return s.Sync()
	}
	return nil
}

// Span is one block of an input, Bytes bytes long: the store block ID
// that FillFrom filled, or block number ID of an input read in place.
type Span struct {
	ID    BlockID
	Bytes int
}

// FillFrom streams totalBytes from r onto the volume, chunkBytes at a
// time (the last span may be shorter) — the O(B)-memory way to load an
// input that does not fit in RAM and can only be read forward (an input
// that can be read at an offset needs no staging: run formation reads
// its blocks where they are, accounted by IssueRead). chunkBytes is the
// caller's element-aligned block payload (it may be less than BlockBytes
// when the element size does not divide the block size). It is one
// loop — read a chunk, allocate a block, write it — through one pooled
// chunk, so a single chunk is live (the caller charges it to its
// budget). Spans are returned in stream order; on a short or failed read
// the blocks already written are returned alongside the error so the
// caller can free them.
func (v *Volume) FillFrom(r io.Reader, totalBytes int64, chunkBytes int) ([]Span, error) {
	if chunkBytes <= 0 || chunkBytes > v.blockBytes {
		return nil, fmt.Errorf("blockio: FillFrom chunk %d outside (0, %d]", chunkBytes, v.blockBytes)
	}
	var spans []Span
	buf := bufpool.Get(chunkBytes)
	defer bufpool.Put(buf)
	for rem := totalBytes; rem > 0; {
		b := buf[:min(int64(chunkBytes), rem)]
		if _, err := io.ReadFull(r, b); err != nil {
			return spans, fmt.Errorf("blockio: source read at byte %d of %d: %w", totalBytes-rem, totalBytes, err)
		}
		id := v.Alloc()
		v.WriteAsync(id, b)
		spans = append(spans, Span{ID: id, Bytes: len(b)})
		rem -= int64(len(b))
	}
	return spans, nil
}
