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
)

// TestWriterBytePathMatchesSlicePath: AddBytes and AddSlice, handed the
// same elements in the same pieces and suspended and resumed at the same
// arbitrary points, write the same File — the same extents, block for
// block — and the same stored bytes, on blocks whose size is not a
// multiple of the element size. The tail keeps its pooled capacity.
func TestWriterBytePathMatchesSlicePath(t *testing.T) {
	rc := elem.Rec100Codec{}
	const blockBytes = 1050 // 10 records and 50 spare bytes
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

// TestWriterResumeKeepsForeignTail: Resume reloads only an owned partial
// block that starts at offset 0 — a trimmed or non-owned last extent
// stays in the file, and appending starts a fresh block after it.
func TestWriterResumeKeepsForeignTail(t *testing.T) {
	for _, last := range []blockio.Extent{{Off: 2, Len: 3, Own: true}, {Off: 0, Len: 3, Own: false}} {
		vol := blockio.NewVolume(blockio.NewMemStore(), 64*16, 0, vtime.Default(), vtime.NewClock())
		w := NewWriter(kvc, vol)
		last.ID = vol.Alloc()
		w.file.Append(last)
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
