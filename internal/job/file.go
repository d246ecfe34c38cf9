package job

import (
	"fmt"

	"demsort/internal/blockio"
	"demsort/internal/bufpool"
	"demsort/internal/cluster"
	"demsort/internal/elem"
	"demsort/internal/xmerge"
)

// File is an ordered sequence of elements stored as extents on one
// PE's volume. Freshly written files have block-aligned extents; the
// in-place all-to-all introduces trimmed ones.
type File struct {
	Extents []blockio.Extent
	N       int64
}

// Append adds an extent, merging the element count.
func (f *File) Append(e blockio.Extent) {
	if e.Len == 0 {
		return
	}
	f.Extents = append(f.Extents, e)
	f.N += int64(e.Len)
}

// Writer buffers elements and writes full blocks asynchronously,
// producing an aligned File. It fills one block at a time, the tail,
// in a stage of up to its stage size in blocks: a full tail is
// allocated its block and its write issued (Volume.IssueWrite) at once,
// as one block's, and the tail moves on to the next slot. The staged
// blocks' data goes to the store once the stage is full or the writer
// is suspended or finished, one store call per stretch of consecutive
// block IDs (Volume.WriteRange). Suspend writes out the partial tail
// (creating a partial block) and hands the stage back to the pool, and
// Resume takes one again and refills the tail — that write/reload pair
// is exactly the "partially filled blocks" overhead of the external
// all-to-all (§IV-E), and a suspended writer holds no buffer. Merge
// merges straight into the tail.
//
// A slot is refilled only after its data went to the store, and that is
// when Volume.WriteRange returns, because every Store has copied the
// blocks by then. An I/O queue that still reads them after WriteRange
// returns must hand the writer a fresh stage instead.
type Writer[T any] struct {
	c      elem.Codec[T]
	vol    *blockio.Volume
	block  int    // bytes in a full block: whole elements
	slots  int    // the stage's size in blocks
	stage  []byte // slots blocks at the volume's block stride; nil while suspended
	staged int    // blocks written but still in the stage: the file's last extents, in slot order
	tail   []byte // the block being filled, in slot staged: capacity one block, nil while suspended
	lens   []int  // WriteRange's block lengths
	file   File
}

// NewWriter starts an empty file on vol, written a block at a time.
func NewWriter[T any](c elem.Codec[T], vol *blockio.Volume) *Writer[T] {
	return NewStagedWriter(c, vol, 1)
}

// NewStagedWriter starts an empty file on vol whose blocks go to the
// store up to slots at a time (Plan.WriteStage).
func NewStagedWriter[T any](c elem.Codec[T], vol *blockio.Volume, slots int) *Writer[T] {
	w := &Writer[T]{c: c, vol: vol, block: vol.BlockBytes() / c.Size() * c.Size(), slots: max(slots, 1)}
	w.Resume()
	return w
}

// AddSlice appends elements, encoding each once, straight into the tail.
func (w *Writer[T]) AddSlice(vs []T) {
	w.add(len(vs), func(i, j int) { w.tail = elem.AppendEncode(w.c, w.tail, vs[i:j]) })
}

// AddBytes appends encoded elements: whole ones, or it panics.
func (w *Writer[T]) AddBytes(b []byte) {
	sz := w.c.Size()
	if len(b)%sz != 0 {
		panic(fmt.Sprintf("job: Writer.AddBytes of %d bytes, not whole %d-byte elements", len(b), sz))
	}
	w.add(len(b)/sz, func(i, j int) { w.tail = append(w.tail, b[i*sz:j*sz]...) })
}

// Merge k-way merges k sorted streams (xmerge.MergeBlocks; next as
// there) through the tail, which must be empty: the merge writes into a
// view of it (elem.InPlace) — or, where the tail cannot be viewed in
// place, into one block of its own that a non-POD codec's encode, or
// the copy, then puts in the tail — so each merged block is in its slot
// when it is written. Each block goes to sink as its wire bytes or, with
// sink nil, onto the end of the file: a full block at once, the last
// partial one left in the tail for Suspend or Finish. each then sees the
// block's elements, valid for the call. sink's error ends the merge.
func (w *Writer[T]) Merge(k int, next func(i int) []T, sink func(encoded []byte) error, each func(blk []T)) error {
	var own []T
	out := func() []T {
		if vs := elem.InPlace(w.c, w.tail[:w.block]); vs != nil {
			return vs
		}
		if own == nil {
			own = make([]T, w.block/w.c.Size())
		}
		return own
	}
	return xmerge.MergeBlocks(w.c, k, out(), next, func(blk []T) ([]T, error) {
		enc := elem.WriteBack(w.c, w.tail[:w.block], blk)
		if sink != nil {
			if err := sink(enc); err != nil {
				return nil, err
			}
		} else if w.tail = enc; len(enc) == w.block {
			w.spill()
		}
		each(blk)
		return out(), nil
	})
}

// add appends n elements, handing put each stretch [i, j) of them that
// fits the tail, and writes the tail out whenever it is a full block. A
// suspended writer is resumed first.
func (w *Writer[T]) add(n int, put func(i, j int)) {
	if w.stage == nil && n > 0 {
		w.Resume()
	}
	for i := 0; i < n; {
		j := min(n, i+(w.block-len(w.tail))/w.c.Size())
		put(i, j)
		i = j
		if len(w.tail) == w.block {
			w.spill()
		}
	}
}

// Finish writes any partial tail out, hands the stage back to the pool
// and returns the file. The writer must not be reused after.
func (w *Writer[T]) Finish() File {
	w.Suspend()
	f := w.file
	w.file = File{}
	return f
}

// spill ends the file with the tail — a partial block (counted I/O)
// unless it is full — as one owned block, issuing its write, and moves
// the tail on to the next slot, putting the stage out first when it is
// full.
func (w *Writer[T]) spill() {
	if len(w.tail) == 0 {
		return
	}
	id := w.vol.Alloc()
	w.vol.IssueWrite(len(w.tail))
	w.file.Append(blockio.Extent{ID: id, Off: 0, Len: len(w.tail) / w.c.Size(), Own: true})
	if w.staged++; w.staged == w.slots {
		w.put()
	}
	o := w.staged * w.vol.BlockBytes()
	w.tail = w.stage[o : o : o+w.vol.BlockBytes()]
}

// put hands the staged blocks' data to the store, one call per stretch
// of consecutive IDs, and empties the stage.
func (w *Writer[T]) put() {
	ext, bs := w.file.Extents[len(w.file.Extents)-w.staged:], w.vol.BlockBytes()
	for lo := 0; lo < len(ext); {
		w.lens = append(w.lens[:0], ext[lo].Len*w.c.Size())
		hi := lo + 1
		for ; hi < len(ext) && ext[hi].ID == ext[hi-1].ID+1; hi++ {
			w.lens = append(w.lens, ext[hi].Len*w.c.Size())
		}
		w.vol.WriteRange(ext[lo].ID, w.lens, w.stage[lo*bs:])
		lo = hi
	}
	w.staged = 0
}

// Suspend spills the tail, puts the stage out and hands it back to the
// pool, so the writer holds no memory between all-to-all sub-operations.
// The next append, or Resume, takes a stage again.
func (w *Writer[T]) Suspend() {
	w.spill()
	w.put()
	bufpool.Put(w.stage)
	w.stage, w.tail = nil, nil
}

// Resume takes a stage from the pool for a suspended writer and reloads
// a trailing partial block into its first slot so appending continues
// seamlessly. A trimmed or non-owned last extent (or a full one) stays
// where it is.
func (w *Writer[T]) Resume() {
	bs := w.vol.BlockBytes()
	w.stage = bufpool.Get(w.slots * bs)
	w.tail = w.stage[:0:bs]
	n := len(w.file.Extents)
	if n == 0 {
		return
	}
	last := w.file.Extents[n-1]
	if last.Len*w.c.Size() == w.block || !last.Own || last.Off != 0 {
		return
	}
	w.tail = w.tail[:last.Len*w.c.Size()]
	w.vol.ReadWait(last.ID, w.tail)
	w.vol.Free(last.ID)
	w.file.Extents = w.file.Extents[:n-1]
	w.file.N -= int64(last.Len)
}

// reader streams a File's extents, issuing each one's read an extent
// ahead (Volume.IssueRead) so that it overlaps the merging of the one
// before — the element-level analogue of the paper's prefetch buffers.
// The data comes from the store a window at a time: up to size extents
// whose blocks are consecutive IDs, in one call (Volume.ReadRange), into
// the one window buffer, the i-th at i·BlockBytes. Each extent is handed
// out where it was read, as a view of the window (elem.View), and the
// window is refilled only when the extent after its last is wanted, so
// every extent in it is dead by then. Owned blocks are returned to the
// volume as soon as they are fully consumed (in-place operation).
type reader[T any] struct {
	c    elem.Codec[T]
	vol  *blockio.Volume
	ext  []blockio.Extent
	size int // the window's size in extents

	i   int            // the current extent, -1 before the first
	cur []T            // its elements, until they are handed out: a view of win
	h   blockio.Handle // the issued read of extent i+1

	win    []byte // the window: extents [lo, hi)
	lo, hi int
	lens   []int // ReadRange's block lengths
}

// newReader issues the first extent's read, waits for it and issues the
// second's. The window holds size extents (Plan.ReadWindow).
func newReader[T any](c elem.Codec[T], vol *blockio.Volume, f File, size int) *reader[T] {
	r := &reader[T]{c: c, vol: vol, ext: f.Extents, size: min(size, len(f.Extents)), i: -1}
	r.win = bufpool.Get(r.size * vol.BlockBytes())
	if len(r.ext) > 0 {
		r.h = r.issue(0)
	}
	r.advance()
	return r
}

// issue issues the read of extent i: its block up to the extent's end.
func (r *reader[T]) issue(i int) blockio.Handle {
	return r.vol.IssueRead((r.ext[i].Off + r.ext[i].Len) * r.c.Size())
}

// advance frees the current extent's block if it is owned, makes the
// next extent current — refilling the window from it first when it is
// not in the window — and issues the read of the one after. At end of
// file it recycles the window and reports false.
func (r *reader[T]) advance() bool {
	if r.i == len(r.ext) {
		return false
	}
	if r.i >= 0 && r.ext[r.i].Own {
		r.vol.Free(r.ext[r.i].ID)
	}
	if r.cur, r.i = nil, r.i+1; r.i == len(r.ext) {
		bufpool.Put(r.win)
		r.win = nil
		return false
	}
	r.vol.Wait(r.h) // before View, which decodes a non-POD codec at the call
	if r.i >= r.hi {
		r.fill()
	}
	e, sz := r.ext[r.i], r.c.Size()
	o := (r.i-r.lo)*r.vol.BlockBytes() + e.Off*sz
	r.cur = elem.View(r.c, r.win[o:o+e.Len*sz])
	if r.i+1 < len(r.ext) {
		r.h = r.issue(r.i + 1)
	}
	return true
}

// fill reads the window from the current extent on: up to size extents,
// as long as their blocks are consecutive IDs, in one store call.
func (r *reader[T]) fill() {
	r.lo, r.hi = r.i, r.i+1
	for r.hi < len(r.ext) && r.hi-r.lo < r.size && r.ext[r.hi].ID == r.ext[r.hi-1].ID+1 {
		r.hi++
	}
	r.lens = r.lens[:0]
	for _, e := range r.ext[r.lo:r.hi] {
		r.lens = append(r.lens, (e.Off+e.Len)*r.c.Size())
	}
	r.vol.ReadRange(r.ext[r.lo].ID, r.lens, r.win)
}

// nextBlock returns the next non-empty extent's elements, nil at end of
// file. The slice views the window, which a later nextBlock call may
// refill, so callers must consume it fully before asking again — the
// contract of the block-at-a-time merge loops.
func (r *reader[T]) nextBlock() []T {
	for len(r.cur) == 0 {
		if !r.advance() {
			return nil
		}
	}
	blk := r.cur
	r.cur = nil
	return blk
}

// MergeFiles k-way merges this PE's sorted files — the local merge both
// the canonical final merge and the baseline's local external sort end
// with — reading each element exactly once, and returns how many
// elements it emitted. Each file's reads are issued one extent ahead
// (overlapping I/O with merging) and its blocks come from the store a
// read window of Plan.ReadWindow extents at a time; they are merged
// where they were read (the reader's views) and freed as soon as they
// are consumed, so the output can recycle them — the (nearly) in-place
// operation of §IV-E. The merge is Writer.Merge, block-at-a-time, into
// the writer's tail: each output block goes from there to sink
// (Job.OutputSink) as it is or — nil sink, nobody wants the output —
// onto the volume, through a stage of Plan.WriteStage blocks. Every
// block is charged the merge and a scan; the memory charge and the
// closing barrier are the caller's.
func (j *Job[T]) MergeFiles(n *cluster.Node, files []File, sink func(rank int, encoded []byte) error) (int64, error) {
	c, model := j.c, j.cfg.Model
	readers := make([]*reader[T], len(files))
	for i, f := range files {
		readers[i] = newReader(c, n.Vol, f, j.ReadWindow)
	}
	var put func([]byte) error
	stage := j.WriteStage
	if sink != nil {
		put, stage = func(b []byte) error { return sink(n.Rank, b) }, 1
	}
	w := NewStagedWriter(c, n.Vol, stage)
	var emitted int64
	err := w.Merge(len(files), func(i int) []T { return readers[i].nextBlock() }, put, func(out []T) {
		emitted += int64(len(out))
		n.AddCPU(model.MergeCPU(int64(len(out)), len(files)) + model.ScanCPU(int64(len(out))))
	})
	w.Finish()
	if err != nil {
		return 0, fmt.Errorf("output sink, rank %d: %w", n.Rank, err)
	}
	return emitted, nil
}
