package job

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"demsort/internal/blockio"
	"demsort/internal/elem"
	"demsort/internal/vtime"
	"demsort/internal/xmerge"
)

// TestWriterBytePathMatchesSlicePath: AddBytes and AddSlice, handed the
// same elements in the same pieces and suspended and resumed at the same
// arbitrary points, write the same File — the same extents, block for
// block — and the same stored bytes, on blocks whose size is not a
// multiple of the element size. The tail keeps its pooled capacity.
func TestWriterBytePathMatchesSlicePath(t *testing.T) {
	rc := elem.Rec100Codec{}
	const blockBytes = 1050 // 10 records and 50 bytes over
	rng := rand.New(rand.NewPCG(7, 11))
	vs := make([]elem.Rec100, 977)
	for i := range vs {
		for b := range vs[i] {
			vs[i][b] = byte(rng.Uint32())
		}
	}
	enc := elem.EncodeSlice(rc, vs)
	for trial := range 20 {
		vols := [2]*blockio.Volume{}
		ws := [2]*Writer[elem.Rec100]{}
		for k := range ws {
			vols[k] = blockio.NewVolume(blockio.NewMemStore(), blockBytes, 0, vtime.Default(), vtime.NewClock())
			ws[k] = NewWriter(rc, vols[k])
		}
		tailCap := cap(ws[1].tail)
		for lo := 0; lo < len(vs); {
			hi := min(lo+rng.IntN(3*10), len(vs)) // pieces of 0 to 2.9 blocks
			ws[0].AddSlice(vs[lo:hi])
			ws[1].AddBytes(enc[lo*100 : hi*100])
			lo = hi
			if rng.IntN(3) == 0 { // a sub-operation boundary
				for _, w := range ws {
					w.Suspend()
					w.Resume()
				}
			}
		}
		if cap(ws[1].tail) != tailCap {
			t.Fatalf("trial %d: the tail's capacity moved from %d to %d", trial, tailCap, cap(ws[1].tail))
		}
		files := [2]File{ws[0].Finish(), ws[1].Finish()}
		if !slices.Equal(files[0].Extents, files[1].Extents) || files[0].N != files[1].N || files[1].N != int64(len(vs)) {
			t.Fatalf("trial %d: AddSlice wrote %+v (%d elements), AddBytes %+v (%d)", trial, files[0].Extents, files[0].N, files[1].Extents, files[1].N)
		}
		for k, f := range files {
			var stored []byte
			for _, e := range f.Extents {
				if e.Off != 0 || !e.Own || e.Len > 10 {
					t.Fatalf("trial %d: extent %+v is not an owned aligned block", trial, e)
				}
				raw := make([]byte, e.Len*100)
				vols[k].ReadWait(e.ID, raw)
				stored = append(stored, raw...)
			}
			if !bytes.Equal(stored, enc) {
				t.Fatalf("trial %d: writer %d stored bytes differ from the elements' encoding", trial, k)
			}
		}
	}
}

// TestWriterSuspendedPerPiece: a writer suspended after every piece —
// the exchange's use, one piece of random length per sub-operation,
// resumed before each but the first — writes the file one AddSlice of
// all the elements writes: the same extent lengths and the same stored
// bytes, on blocks whose size is not a multiple of the element size.
// While suspended it holds no buffer.
func TestWriterSuspendedPerPiece(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 23))
	t.Run("kv16", func(t *testing.T) {
		checkSuspendedPerPiece(t, rng, kvc, func() elem.KV16 { return elem.KV16{Key: rng.Uint64(), Val: rng.Uint64()} })
	})
	t.Run("rec100", func(t *testing.T) {
		checkSuspendedPerPiece(t, rng, elem.Rec100Codec{}, func() (r elem.Rec100) {
			for i := range r {
				r[i] = byte(rng.Uint32())
			}
			return r
		})
	})
}

func checkSuspendedPerPiece[T any](t *testing.T, rng *rand.Rand, c elem.Codec[T], gen func() T) {
	const blockBytes = 1050
	perBlock := blockBytes / c.Size()
	for trial := range 20 {
		vs := make([]T, rng.IntN(8*perBlock))
		for i := range vs {
			vs[i] = gen()
		}
		var vols [2]*blockio.Volume
		var files [2]File
		for k := range vols {
			vols[k] = blockio.NewVolume(blockio.NewMemStore(), blockBytes, 0, vtime.Default(), vtime.NewClock())
		}
		whole := NewWriter(c, vols[0])
		whole.AddSlice(vs)
		files[0] = whole.Finish()

		w := NewWriter(c, vols[1])
		for lo := 0; lo < len(vs); {
			if lo > 0 {
				w.Resume()
			}
			hi := min(lo+rng.IntN(3*perBlock), len(vs)) // pieces of 0 to 2.9 blocks
			w.AddBytes(elem.EncodeSlice(c, vs[lo:hi]))
			w.Suspend()
			if w.tail != nil {
				t.Fatalf("trial %d: a suspended writer holds a %d-byte tail buffer", trial, cap(w.tail))
			}
			lo = hi
		}
		files[1] = w.Finish()

		lens := func(f File) (l []int) {
			for _, e := range f.Extents {
				l = append(l, e.Len)
			}
			return l
		}
		if !slices.Equal(lens(files[0]), lens(files[1])) || files[1].N != int64(len(vs)) {
			t.Fatalf("trial %d: suspended per piece wrote extents of %v (%d elements), one AddSlice %v (%d)",
				trial, lens(files[1]), files[1].N, lens(files[0]), len(vs))
		}
		var stored [2][]byte
		for k, f := range files {
			for _, e := range f.Extents {
				raw := make([]byte, e.Len*c.Size())
				vols[k].ReadWait(e.ID, raw)
				stored[k] = append(stored[k], raw...)
			}
		}
		if !bytes.Equal(stored[0], stored[1]) || !bytes.Equal(stored[0], elem.EncodeSlice(c, vs)) {
			t.Fatalf("trial %d: the stored bytes differ from the elements' encoding", trial)
		}
	}
}

// TestWriterResumeKeepsForeignTail: Resume reloads only an owned partial
// block that starts at offset 0 — a trimmed or non-owned last extent
// stays in the file, and appending starts a fresh block after it.
func TestWriterResumeKeepsForeignTail(t *testing.T) {
	for _, last := range []blockio.Extent{{Off: 2, Len: 3, Own: true}, {Off: 0, Len: 3, Own: false}} {
		vol := blockio.NewVolume(blockio.NewMemStore(), 64*16, 0, vtime.Default(), vtime.NewClock())
		w := NewWriter(kvc, vol)
		last.ID = vol.Alloc()
		w.file.Append(last)
		w.Suspend()
		w.Resume()
		w.AddBytes(elem.EncodeSlice(kvc, []elem.KV16{{Key: 1}, {Key: 2}}))
		f := w.Finish()
		if len(f.Extents) != 2 || f.Extents[0] != last || f.Extents[1].Len != 2 || f.N != 5 {
			t.Fatalf("last extent %+v: Resume reloaded it, file %+v", last, f)
		}
	}
}

// TestWriterAddBytesRejectsPartialElements: the byte path takes whole
// elements only.
func TestWriterAddBytesRejectsPartialElements(t *testing.T) {
	w := NewWriter(kvc, blockio.NewVolume(blockio.NewMemStore(), 64*16, 0, vtime.Default(), vtime.NewClock()))
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "not whole 16-byte elements") {
			t.Fatalf("AddBytes of 17 bytes: recovered %q, want a whole-elements panic", r)
		}
	}()
	w.AddBytes(make([]byte, 17))
}

// TestWriterMergeEqualsAddSliceOfMerge: Writer.Merge, merging straight
// into the tail, writes the file AddSlice writes of the central merge —
// the same extents and the same stored bytes — and with a sink hands
// over exactly those bytes and writes nothing; each sees the merged
// elements in order. KV16 and Rec100 merge in the tail's own bytes
// (Rec100 records tie on their 8-byte key prefix), the closure-only
// codec through a separate slice encoded into the tail; the block size
// is not a multiple of either element size.
func TestWriterMergeEqualsAddSliceOfMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 17))
	kv := func() elem.KV16 { return elem.KV16{Key: rng.Uint64N(50), Val: rng.Uint64()} }
	t.Run("kv16", func(t *testing.T) { checkWriterMerge(t, rng, kvc, kv) })
	t.Run("closure_kv16", func(t *testing.T) { checkWriterMerge[elem.KV16](t, rng, closureKV16{}, kv) })
	t.Run("rec100", func(t *testing.T) {
		checkWriterMerge(t, rng, elem.Rec100Codec{}, func() (r elem.Rec100) {
			for i := range r {
				r[i] = byte(rng.Uint32())
			}
			r[0], r[7] = 0, byte(rng.IntN(3))
			return r
		})
	})
}

func checkWriterMerge[T any](t *testing.T, rng *rand.Rand, c elem.Codec[T], gen func() T) {
	const blockBytes = 1050
	stored := func(vol *blockio.Volume, f File) []byte {
		var b []byte
		for _, e := range f.Extents {
			raw := make([]byte, e.Len*c.Size())
			vol.ReadWait(e.ID, raw)
			b = append(b, raw...)
		}
		return b
	}
	for trial := range 20 {
		parts := make([][]T, rng.IntN(6)+1)
		for i := range parts {
			parts[i] = make([]T, rng.IntN(150)*(i%3))
			for k := range parts[i] {
				parts[i][k] = gen()
			}
			slices.SortStableFunc(parts[i], orderOf(c))
		}
		want := xmerge.AppendMerge(c, nil, parts)
		next := func() func(int) []T {
			ps := slices.Clone(parts)
			return func(i int) []T { p := ps[i]; ps[i] = nil; return p }
		}
		var vols [3]*blockio.Volume
		var ws [3]*Writer[T]
		for k := range ws {
			vols[k] = blockio.NewVolume(blockio.NewMemStore(), blockBytes, 0, vtime.Default(), vtime.NewClock())
			ws[k] = NewWriter(c, vols[k])
		}
		ws[0].AddSlice(want)
		var seen [2][]T
		var sunk []byte
		ws[1].Merge(len(parts), next(), nil, func(blk []T) { seen[0] = append(seen[0], blk...) })
		err := ws[2].Merge(len(parts), next(), func(b []byte) error { sunk = append(sunk, b...); return nil }, func(blk []T) { seen[1] = append(seen[1], blk...) })
		if err != nil {
			t.Fatal(err)
		}
		files := [3]File{ws[0].Finish(), ws[1].Finish(), ws[2].Finish()}
		enc := elem.EncodeSlice(c, want)
		if !slices.Equal(files[0].Extents, files[1].Extents) || files[1].N != int64(len(want)) || !bytes.Equal(stored(vols[1], files[1]), enc) {
			t.Fatalf("trial %d: Merge wrote %+v, AddSlice of the merge %+v", trial, files[1].Extents, files[0].Extents)
		}
		if files[2].N != 0 || !bytes.Equal(sunk, enc) {
			t.Fatalf("trial %d: Merge with a sink wrote %d elements and sank %d bytes, want none and %d", trial, files[2].N, len(sunk), len(enc))
		}
		for _, s := range seen {
			if !bytes.Equal(elem.EncodeSlice(c, s), enc) {
				t.Fatalf("trial %d: each saw %d elements, not the merge's %d", trial, len(s), len(want))
			}
		}
	}
}
