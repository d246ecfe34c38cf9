//go:build race

package bufpool

import "testing"

// TestPutPoisons: in race builds Put overwrites the whole capacity of
// the buffer it takes back, so a reader still holding it sees
// poisonByte, not its old contents.
func TestPutPoisons(t *testing.T) {
	for _, b := range [][]byte{Get(100), Get(100)[:10], make([]byte, 70, 200)} {
		for i := range b {
			b[i] = 1
		}
		Put(b)
		for i, v := range b[:cap(b)] {
			if v != poisonByte {
				t.Fatalf("byte %d of a recycled %d-byte buffer (cap %d) reads %#x, want %#x", i, len(b), cap(b), v, poisonByte)
			}
		}
	}
}
