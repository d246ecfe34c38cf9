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
// producing an aligned File. The partial block is one encoded tail
// buffer, which Suspend writes out (creating a partial block) and hands
// back to the pool, and Resume takes again and refills — that
// write/reload pair is exactly the "partially filled blocks" overhead
// of the external all-to-all (§IV-E), and a suspended writer holds no
// buffer. Merge merges straight into the tail.
//
// The tail is refilled as soon as Volume.WriteAsync returns, which holds
// because every Store has copied the block by then. An I/O queue that
// still reads the block after WriteAsync returns must hand the writer a
// fresh tail buffer instead.
type Writer[T any] struct {
	c     elem.Codec[T]
	vol   *blockio.Volume
	block int    // bytes in a full block: whole elements
	tail  []byte // the encoded partial block; its capacity is the pooled buffer's, nil while suspended
	file  File
}

// NewWriter starts an empty file on vol.
func NewWriter[T any](c elem.Codec[T], vol *blockio.Volume) *Writer[T] {
	return &Writer[T]{
		c:     c,
		vol:   vol,
		block: vol.BlockBytes() / c.Size() * c.Size(),
		tail:  bufpool.Get(vol.BlockBytes())[:0],
	}
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

// Merge k-way merges k sorted streams (xmerge.MergeStream; next as
// there) through the tail, which must be empty: the merge writes into a
// view of it (elem.OutView), so each merged block is encoded where it is
// written — for a non-POD codec, by one encode into the tail. Each block
// goes to sink as its wire bytes or, with sink nil, onto the end of the
// file: a full block at once, the last partial one left in the tail for
// Suspend or Finish. each then sees the block's elements, valid for the
// call. sink's error ends the merge.
func (w *Writer[T]) Merge(k int, next func(i int) []T, sink func(encoded []byte) error, each func(blk []T)) error {
	out := elem.OutView(w.c, w.tail[:w.block])
	return xmerge.MergeStream(w.c, k, out, next, func(blk []T) error {
		enc := elem.WriteBack(w.c, w.tail[:w.block], blk)
		if sink != nil {
			if err := sink(enc); err != nil {
				return err
			}
		} else if w.tail = enc; len(enc) == w.block {
			w.spill()
		}
		each(blk)
		return nil
	})
}

// add appends n elements, handing put each stretch [i, j) of them that
// fits the tail, and writes the tail out whenever it is a full block.
func (w *Writer[T]) add(n int, put func(i, j int)) {
	for i := 0; i < n; {
		j := min(n, i+(w.block-len(w.tail))/w.c.Size())
		put(i, j)
		i = j
		if len(w.tail) == w.block {
			w.spill()
		}
	}
}

// flush writes blk out as one owned block at the end of the file.
func (w *Writer[T]) flush(blk []byte) {
	id := w.vol.Alloc()
	w.vol.WriteAsync(id, blk)
	w.file.Append(blockio.Extent{ID: id, Off: 0, Len: len(blk) / w.c.Size(), Own: true})
}

// Finish writes any partial tail out, hands the tail buffer back to the
// pool and returns the file. The writer must not be reused after.
func (w *Writer[T]) Finish() File {
	w.Suspend()
	f := w.file
	w.file = File{}
	return f
}

// spill writes the tail out — a partial block (counted I/O) unless it
// is full — and empties it, keeping its buffer (Merge writes into a
// view of it).
func (w *Writer[T]) spill() {
	if len(w.tail) > 0 {
		w.flush(w.tail)
		w.tail = w.tail[:0]
	}
}

// Suspend spills the tail and hands its buffer back to the pool, so the
// writer holds no memory between all-to-all sub-operations. A suspended
// writer takes appends again only after Resume.
func (w *Writer[T]) Suspend() {
	w.spill()
	bufpool.Put(w.tail)
	w.tail = nil
}

// Resume takes a tail buffer from the pool for a suspended writer and
// reloads a trailing partial block into it so appending continues
// seamlessly. A trimmed or non-owned last extent (or a full one) stays
// where it is.
func (w *Writer[T]) Resume() {
	w.tail = bufpool.Get(w.vol.BlockBytes())[:0]
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

// reader streams a File's extents with double-buffered asynchronous
// prefetching: while one extent is being merged the next is already in
// flight, the element-level analogue of the paper's prefetch buffers.
// Each extent is handed out where it was read, as a view of its buffer
// (elem.View), and the two buffers swap: the next read goes into the
// buffer of the extent handed out before, which is dead by then. Owned
// blocks are returned to the volume as soon as they are fully consumed
// (in-place operation).
type reader[T any] struct {
	c    elem.Codec[T]
	vol  *blockio.Volume
	file File
	idx  int // next extent to read

	cur    []T // the current extent, until it is handed out: a view of curRaw
	curRaw []byte
	curE   blockio.Extent

	nextRaw []byte
	nextH   blockio.Handle
	nextOK  bool
	nextE   blockio.Extent
}

// newReader issues the first extent's read, waits for it and issues the
// second's.
func newReader[T any](c elem.Codec[T], vol *blockio.Volume, f File) *reader[T] {
	r := &reader[T]{c: c, vol: vol, file: f}
	r.prefetch()
	r.advance()
	return r
}

// prefetch issues the read of the next extent.
func (r *reader[T]) prefetch() {
	r.nextOK = false
	if r.idx >= len(r.file.Extents) {
		return
	}
	e := r.file.Extents[r.idx]
	r.idx++
	need := (e.Off + e.Len) * r.c.Size()
	if cap(r.nextRaw) < need {
		bufpool.Put(r.nextRaw)
		r.nextRaw = bufpool.Get(need)
	}
	r.nextRaw = r.nextRaw[:need]
	r.nextH = r.vol.ReadAsync(e.ID, r.nextRaw)
	r.nextE = e
	r.nextOK = true
}

// advance frees the current extent's block if it is owned, makes the
// prefetched extent current and prefetches another into the other
// buffer. At end of file it recycles both buffers and reports false.
func (r *reader[T]) advance() bool {
	if r.curE.Own && r.curE.Len > 0 {
		r.vol.Free(r.curE.ID)
	}
	r.cur, r.curE = nil, blockio.Extent{}
	if !r.nextOK {
		bufpool.Put(r.curRaw)
		bufpool.Put(r.nextRaw)
		r.curRaw, r.nextRaw = nil, nil
		return false
	}
	r.vol.Wait(r.nextH) // before View, which decodes a non-POD codec at the call
	r.curRaw, r.nextRaw = r.nextRaw, r.curRaw
	r.curE = r.nextE
	r.cur = elem.View(r.c, r.curRaw[r.curE.Off*r.c.Size():])
	r.prefetch()
	return true
}

// nextBlock returns the next non-empty extent's elements, nil at end of
// file. The slice views the read buffer, which the following nextBlock
// call reads the extent after next into, so callers must consume it
// fully before asking again — the contract of the block-at-a-time merge
// loops.
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
// elements it emitted. Input blocks are prefetched one extent ahead per
// file (overlapping I/O with merging), merged where they were read (the
// reader's views) and freed as soon as they are consumed, so the output
// can recycle them — the (nearly) in-place operation of §IV-E. The
// merge is Writer.Merge, block-at-a-time, into the writer's tail: each
// output block goes from there to sink (Job.OutputSink) as it is or —
// nil sink, nobody wants the output — onto the volume. Every block is
// charged the merge and a scan; the memory charge and the closing
// barrier are the caller's.
func (j *Job[T]) MergeFiles(n *cluster.Node, files []File, sink func(rank int, encoded []byte) error) (int64, error) {
	c, model := j.c, j.cfg.Model
	readers := make([]*reader[T], len(files))
	for i, f := range files {
		readers[i] = newReader(c, n.Vol, f)
	}
	var put func([]byte) error
	if sink != nil {
		put = func(b []byte) error { return sink(n.Rank, b) }
	}
	w := NewWriter(c, n.Vol)
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
