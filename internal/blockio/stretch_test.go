package blockio

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"demsort/internal/vtime"
)

// TestFileStoreStretches: a stretch of blocks written in one call and
// read back in one call — with 24 bytes of padding per 1024-byte block
// and a short last block — holds what block-at-a-time calls hold, every
// block reads back the bytes written to it and no byte more, any
// sub-stretch reads back alone, and a read is refused when a block of
// it is unwritten or shorter than wanted, or when the file ends inside
// the stretch (naming the block it ends in).
func TestFileStoreStretches(t *testing.T) {
	const bs = 1024
	path := filepath.Join(t.TempDir(), "vol")
	s, err := NewFileStore(path, bs, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lens := []int{1000, 1000, 1000, 300}
	buf := make([]byte, 3*bs+300)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	if err := s.WriteRange(4, lens, buf); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(8, buf[:bs]); err != nil {
		t.Fatal(err)
	}
	for i, n := range append(lens, bs) {
		got := make([]byte, n+1)
		if err := s.ReadAt(BlockID(4+i), got[:n]); err != nil || !bytes.Equal(got[:n], buf[i%4*bs:][:n]) {
			t.Fatalf("block %d: %v, or not the bytes written", 4+i, err)
		}
		if err := s.ReadAt(BlockID(4+i), got); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("holds %d bytes, want %d", n, n+1)) {
			t.Fatalf("block %d: a read of one byte more than it holds returned %v", 4+i, err)
		}
	}
	got := make([]byte, 4*bs)
	if err := s.ReadRange(5, []int{600, 1000, 300, bs}, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:600], buf[bs:bs+600]) || !bytes.Equal(got[bs:2*bs+300], buf[2*bs:]) || !bytes.Equal(got[3*bs:], buf[:bs]) {
		t.Fatal("a stretch reads back other bytes than were written")
	}
	for _, tc := range []struct {
		first BlockID
		lens  []int
		want  string
	}{
		{3, []int{10, 10}, "unwritten block 3"},
		{7, []int{300, 10, 10}, "unwritten block 9"},
		{6, []int{1000, 301}, "block 7 holds 300 bytes, want 301"},
		{4, []int{bs + 1}, "block 4 holds 1000 bytes"},
	} {
		if err := s.ReadRange(tc.first, tc.lens, got); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReadRange(%d, %v): %v, want an error naming %q", tc.first, tc.lens, err, tc.want)
		}
	}
	if err := s.WriteRange(0, []int{bs, bs + 1}, make([]byte, 3*bs)); err == nil {
		t.Error("an oversized block in a stretch must fail the write")
	}
	if err := os.Truncate(path, 6*bs+100); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadRange(4, lens, got); err == nil || !strings.Contains(err.Error(), "block 6") {
		t.Errorf("a stretch past the end of the file: %v, want an error naming block 6", err)
	}
}

// TestVolumeStretchesMoveDataOnly: Volume.ReadRange and WriteRange move
// a stretch's data — block by block on a store without stretch calls,
// with the same result — and account nothing, so a block's I/O counts
// once, where IssueRead or IssueWrite issue it.
func TestVolumeStretchesMoveDataOnly(t *testing.T) {
	const bs = 256
	fs, err := NewFileStore(filepath.Join(t.TempDir(), "vol"), bs, false)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	lens := []int{250, 250, 17}
	src := bytes.Repeat([]byte("stretch!"), 2*bs/8+3)
	var read [2][]byte
	for k, store := range []Store{NewMemStore(), fs} {
		v := NewVolume(store, bs, 0, testModel(), vtime.NewClock())
		v.WriteRange(10, lens, src)
		read[k] = make([]byte, len(src))
		v.ReadRange(10, lens, read[k])
		if st := v.Clock().Cur(); *st != (vtime.PhaseStats{}) || v.Clock().Now() != 0 {
			t.Fatalf("store %d: a stretch accounted %+v, clock %g", k, *st, v.Clock().Now())
		}
		v.IssueWrite(250)
		v.IssueRead(17)
		if st := v.Clock().Cur(); st.BlocksWritten != 1 || st.BytesWritten != 250 || st.BlocksRead != 1 || st.BytesRead != 17 || st.IOTime == 0 {
			t.Fatalf("store %d: issuing a write and a read accounted %+v", k, *st)
		}
	}
	for i, n := range lens {
		if a, b := read[0][i*bs:i*bs+n], read[1][i*bs:i*bs+n]; !bytes.Equal(a, src[i*bs:i*bs+n]) || !bytes.Equal(b, a) {
			t.Fatalf("block %d of the stretch reads back other bytes", i)
		}
	}
}
