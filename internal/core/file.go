package core

import (
	"demsort/internal/blockio"
	"demsort/internal/bufpool"
	"demsort/internal/elem"
)

// Extent is a contiguous range of elements inside one disk block:
// elements [Off, Off+Len) of block ID. Own marks whether the file is
// the block's unique owner (and may free it after consumption); the
// all-to-all relabels kept data into output files by trimming extents,
// and a block whose other part was sent away is not freeable.
type Extent struct {
	ID  blockio.BlockID
	Off int
	Len int
	Own bool
}

// File is an ordered sequence of elements stored as extents on one
// PE's volume. Freshly written files have block-aligned extents; the
// in-place all-to-all introduces trimmed ones.
type File struct {
	Extents []Extent
	N       int64
}

// Append adds an extent, merging the element count.
func (f *File) Append(e Extent) {
	if e.Len == 0 {
		return
	}
	f.Extents = append(f.Extents, e)
	f.N += int64(e.Len)
}

// writer buffers elements and writes full blocks asynchronously,
// producing an aligned File. The partial tail buffer can be flushed
// (creating a partial block) and refilled later — that flush/reload
// pair is exactly the "partially filled blocks" overhead of the
// external all-to-all (§IV-E).
type writer[T any] struct {
	c     elem.Codec[T]
	vol   *blockio.Volume
	bElem int
	buf   []T
	file  File
	enc   []byte
}

func newWriter[T any](c elem.Codec[T], vol *blockio.Volume) *writer[T] {
	bElem := vol.BlockBytes() / c.Size()
	return &writer[T]{
		c:     c,
		vol:   vol,
		bElem: bElem,
		buf:   make([]T, 0, bElem),
		enc:   bufpool.Get(vol.BlockBytes())[:0],
	}
}

// addSlice appends many elements. Whole blocks arriving on an empty
// tail buffer are encoded straight from vs — the block-at-a-time merge
// loop hits this path for every full output block, paying no staging
// copy.
func (w *writer[T]) addSlice(vs []T) {
	for len(vs) > 0 {
		if len(w.buf) == 0 && len(vs) >= w.bElem {
			w.flush(vs[:w.bElem])
			vs = vs[w.bElem:]
			continue
		}
		take := min(len(vs), w.bElem-len(w.buf))
		w.buf = append(w.buf, vs[:take]...)
		vs = vs[take:]
		if len(w.buf) == w.bElem {
			w.suspend()
		}
	}
}

// flush writes blk out as one owned block at the end of the file.
func (w *writer[T]) flush(blk []T) {
	id := w.vol.Alloc()
	w.enc = elem.AppendEncode(w.c, w.enc[:0], blk)
	w.vol.WriteAsync(id, w.enc)
	w.file.Append(Extent{ID: id, Off: 0, Len: len(blk), Own: true})
}

// finish flushes any partial tail, releases the encode buffer to the
// arena and returns the file. The writer must not be reused after.
func (w *writer[T]) finish() File {
	w.suspend()
	bufpool.Put(w.enc)
	w.enc = nil
	f := w.file
	w.file = File{}
	return f
}

// suspend writes the tail buffer out — a partial block (counted I/O)
// unless it is full — so the writer holds no element state between
// all-to-all sub-operations; resume reads a partial one back. Both are
// no-ops for an empty or block-aligned tail.
func (w *writer[T]) suspend() {
	if len(w.buf) > 0 {
		w.flush(w.buf)
		w.buf = w.buf[:0]
	}
}

// resume reloads a trailing partial block into the tail buffer so
// appending continues seamlessly.
func (w *writer[T]) resume() {
	n := len(w.file.Extents)
	if n == 0 {
		return
	}
	last := w.file.Extents[n-1]
	if last.Len == w.bElem || !last.Own || last.Off != 0 {
		return
	}
	raw := bufpool.Get(last.Len * w.c.Size())
	w.vol.ReadWait(last.ID, raw)
	w.buf = elem.AppendDecode(w.c, w.buf[:0], raw, last.Len)
	bufpool.Put(raw)
	w.vol.Free(last.ID)
	w.file.Extents = w.file.Extents[:n-1]
	w.file.N -= int64(last.Len)
}

// reader streams a File's elements with double-buffered asynchronous
// prefetching: while one extent is being consumed the next is already
// in flight, the element-level analogue of the paper's prefetch
// buffers. When free is true, owned blocks are returned to the volume
// as soon as they are fully consumed (in-place operation).
type reader[T any] struct {
	c    elem.Codec[T]
	vol  *blockio.Volume
	file File
	free bool

	idx  int // next extent to hand out
	cur  []T
	pos  int
	curE Extent

	nextRaw []byte
	nextH   blockio.Handle
	nextOK  bool
	nextE   Extent
}

func newReader[T any](c elem.Codec[T], vol *blockio.Volume, f File, free bool) *reader[T] {
	r := &reader[T]{c: c, vol: vol, file: f, free: free}
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

// advance makes the prefetched extent current and prefetches another.
func (r *reader[T]) advance() {
	if r.free && r.curE.Own && r.curE.Len > 0 {
		r.vol.Free(r.curE.ID)
	}
	if !r.nextOK {
		r.cur = nil
		r.curE = Extent{}
		bufpool.Put(r.nextRaw)
		r.nextRaw = nil
		return
	}
	r.vol.Wait(r.nextH)
	e := r.nextE
	raw := r.nextRaw[e.Off*r.c.Size():]
	r.cur = elem.AppendDecode(r.c, r.cur[:0], raw, e.Len)
	r.pos = 0
	r.curE = e
	// Swap buffers so the next prefetch does not overwrite cur...
	// cur was decoded already, so the raw buffer is reusable.
	r.prefetch()
}

// nextBlock returns the unconsumed remainder of the current decoded
// extent, advancing to the next extent when the current one is used
// up; nil at end of file. The returned slice is only valid until the
// following nextBlock call (the decode buffer is reused), so callers
// must consume it fully before asking again — the contract of the
// block-at-a-time merge loops.
func (r *reader[T]) nextBlock() []T {
	for r.pos >= len(r.cur) {
		if r.cur == nil {
			return nil
		}
		r.advance()
	}
	blk := r.cur[r.pos:]
	r.pos = len(r.cur)
	return blk
}

// streamRaw feeds a File's encoded bytes to fn in element order — the
// zero-RAM-footprint way to drain a sorted output file (Config.Sink).
// The slice passed to fn is only valid for the duration of the call.
// The extents flow through two pooled buffers and extent i+1's read is
// issued before fn consumes extent i, hiding the store reads behind the
// sink writes.
func streamRaw[T any](c elem.Codec[T], vol *blockio.Volume, f File, fn func([]byte) error) error {
	var bufs [2][]byte
	var hs [2]blockio.Handle
	bufs[0] = bufpool.Get(vol.BlockBytes())
	bufs[1] = bufpool.Get(vol.BlockBytes())
	defer func() { bufpool.Put(bufs[0]); bufpool.Put(bufs[1]) }()
	issue := func(i int) {
		e := f.Extents[i]
		need := (e.Off + e.Len) * c.Size()
		b := i & 1
		if cap(bufs[b]) < need {
			bufpool.Put(bufs[b])
			bufs[b] = bufpool.Get(need)
		}
		bufs[b] = bufs[b][:need]
		hs[b] = vol.ReadAsync(e.ID, bufs[b])
	}
	if len(f.Extents) > 0 {
		issue(0)
	}
	for i, e := range f.Extents {
		b := i & 1
		vol.Wait(hs[b])
		if i+1 < len(f.Extents) {
			issue(i + 1)
		}
		if err := fn(bufs[b][e.Off*c.Size():]); err != nil {
			return err
		}
	}
	return nil
}
