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
	"sort"
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
// the CLI can sort data that genuinely does not fit in memory.
type FileStore struct {
	f          *os.File
	blockBytes int
	keep       bool            // durable mode: survive Close (checkpoint/restart)
	lens       map[BlockID]int // actual stored length per block
	mu         sync.Mutex
}

// NewFileStore opens a file-backed store at path with the given block
// capacity in bytes. A transient store (durable false) truncates the
// file and removes it on Close — a spill store. A durable one never
// truncates and its file survives Close — the adopt/keep mode of the
// checkpoint/restart plane: a fresh store starts with no readable
// blocks; a store adopted after a crash recovers its block layout from
// the rank's manifest via SetBlockLens.
func NewFileStore(path string, blockBytes int, durable bool) (*FileStore, error) {
	flags := os.O_RDWR | os.O_CREATE
	if !durable {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blockio: %w", err)
	}
	return &FileStore{f: f, blockBytes: blockBytes, keep: durable, lens: map[BlockID]int{}}, nil
}

// ReadAt implements Store.
func (s *FileStore) ReadAt(id BlockID, dst []byte) error {
	s.mu.Lock()
	n, ok := s.lens[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("blockio: read of unwritten block %d", id)
	}
	if len(dst) > n {
		return fmt.Errorf("blockio: block %d holds %d bytes, want %d", id, n, len(dst))
	}
	if _, err := s.f.ReadAt(dst, int64(id)*int64(s.blockBytes)); err != nil && err != io.EOF {
		return fmt.Errorf("blockio: %w", err)
	}
	return nil
}

// WriteAt implements Store.
func (s *FileStore) WriteAt(id BlockID, src []byte) error {
	if len(src) > s.blockBytes {
		return fmt.Errorf("blockio: write of %d bytes into %d-byte blocks", len(src), s.blockBytes)
	}
	if _, err := s.f.WriteAt(src, int64(id)*int64(s.blockBytes)); err != nil {
		return fmt.Errorf("blockio: %w", err)
	}
	s.mu.Lock()
	s.lens[id] = len(src)
	s.mu.Unlock()
	return nil
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

// BlockLens snapshots the per-block stored lengths (the block layout a
// checkpoint manifest records), in ascending BlockID order.
func (s *FileStore) BlockLens() []BlockLen {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]BlockLen, 0, len(s.lens))
	for id, n := range s.lens {
		out = append(out, BlockLen{ID: int64(id), Bytes: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SetBlockLens restores the block layout of an adopted store from its
// manifest, replacing whatever the store knew before.
func (s *FileStore) SetBlockLens(lens []BlockLen) {
	m := make(map[BlockID]int, len(lens))
	for _, l := range lens {
		m[BlockID(l.ID)] = l.Bytes
	}
	s.mu.Lock()
	s.lens = m
	s.mu.Unlock()
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
// present, and always survive Close. Resumed ranks recover the block
// layout from their manifest (core restores it via SetBlockLens); a
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
// free list (in-place operation), asynchronous reads/writes accounted
// against the PE's clock and disk device, and traffic counters.
//
// A Volume is owned by its PE's goroutine. The one exception is
// ServeRemoteRead, which the owner itself calls while answering probe
// requests during synchronous selection rounds.
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
	if err := v.store.WriteAt(id, src); err != nil {
		panic(err) // simulation substrate failure, not a user error
	}
	dur := v.model.DiskDur(v.rank, len(src))
	done := v.disk.Acquire(v.clock.Now(), dur)
	st := v.clock.Cur()
	st.IOTime += dur
	st.BytesWritten += int64(len(src))
	st.BlocksWritten++
	return v.issued(done)
}

// ReadAsync fetches block id into dst immediately (real data) and
// returns the virtual completion time; call Wait before using the data
// so the clock reflects the transfer.
func (v *Volume) ReadAsync(id BlockID, dst []byte) Handle {
	if err := v.store.ReadAt(id, dst); err != nil {
		panic(err)
	}
	dur := v.model.DiskDur(v.rank, len(dst))
	done := v.disk.Acquire(v.clock.Now(), dur)
	st := v.clock.Cur()
	st.IOTime += dur
	st.BytesRead += int64(len(dst))
	st.BlocksRead++
	return v.issued(done)
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

// AllocState snapshots the allocator — the next unallocated BlockID
// and the current free list — for a checkpoint manifest.
func (v *Volume) AllocState() (next int64, freeList []int64) {
	free := make([]int64, len(v.freeList))
	for i, id := range v.freeList {
		free[i] = int64(id)
	}
	return int64(v.next), free
}

// RestoreAlloc rewinds the allocator to a checkpointed state: every id
// below next is live unless it is on the free list. Blocks written
// after the checkpoint become unreferenced file garbage, which a
// resumed run simply overwrites.
func (v *Volume) RestoreAlloc(next int64, freeList []int64) {
	v.next = BlockID(next)
	v.freeList = v.freeList[:0]
	for _, id := range freeList {
		v.freeList = append(v.freeList, BlockID(id))
	}
	v.used = next - int64(len(freeList))
	if v.used > v.peakUsed {
		v.peakUsed = v.used
	}
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

// Span is one block filled by FillFrom: block ID holds Bytes bytes.
type Span struct {
	ID    BlockID
	Bytes int
}

// fillChunk is one staged read of FillFrom.
type fillChunk struct {
	buf []byte
	err error
}

// FillFrom streams totalBytes from r onto the volume, chunkBytes at a
// time (the last span may be shorter) — the O(B)-memory way to load an
// input that does not fit in RAM. chunkBytes is the caller's
// element-aligned block payload (it may be less than BlockBytes when
// the element size does not divide the block size). A reader goroutine
// stages up to two pooled chunks ahead while the calling PE goroutine
// allocates and writes blocks — the double-buffered load pipeline of
// §IV-E — so at most three chunks are live (the caller charges them to
// its budget) and the volume itself is only ever touched by the calling
// goroutine. Spans are returned in stream order; on a short or failed
// read the blocks already written are returned alongside the error so
// the caller can free them.
func (v *Volume) FillFrom(r io.Reader, totalBytes int64, chunkBytes int) ([]Span, error) {
	if chunkBytes <= 0 || chunkBytes > v.blockBytes {
		return nil, fmt.Errorf("blockio: FillFrom chunk %d outside (0, %d]", chunkBytes, v.blockBytes)
	}
	var spans []Span
	if totalBytes <= 0 {
		return spans, nil
	}
	const depth = 2
	ch := make(chan fillChunk, depth)
	stop := make(chan struct{})
	defer close(stop) // a consumer-side panic must not strand the reader
	go func() {
		defer close(ch)
		for rem := totalBytes; rem > 0; {
			take := chunkBytes
			if int64(take) > rem {
				take = int(rem)
			}
			b := bufpool.Get(take)
			if _, err := io.ReadFull(r, b); err != nil {
				bufpool.Put(b)
				select {
				case ch <- fillChunk{err: fmt.Errorf("blockio: source read at byte %d of %d: %w", totalBytes-rem, totalBytes, err)}:
				case <-stop:
				}
				return
			}
			select {
			case ch <- fillChunk{buf: b}:
			case <-stop:
				bufpool.Put(b)
				return
			}
			rem -= int64(take)
		}
	}()
	for c := range ch {
		if c.err != nil {
			return spans, c.err
		}
		id := v.Alloc()
		v.WriteAsync(id, c.buf)
		spans = append(spans, Span{ID: id, Bytes: len(c.buf)})
		bufpool.Put(c.buf)
	}
	return spans, nil
}
