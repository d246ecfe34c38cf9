package sortbench

import (
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"testing"
)

// TestMain runs the package's tests twice where the CPU has the
// three-record CRC kernel: on the kernel path, then on the per-record
// hash/crc32 path, so every digest test checks both.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && crcKernel {
		fmt.Println("sortbench: again on the per-record digest path")
		crcKernel = false
		code = m.Run()
	}
	os.Exit(code)
}

// TestDigestKernelMatchesPerRecord: Tally and Accum.Add sum what
// hash/crc32 gives record by record, over random records at every count
// up to 7, around a multiple of three (the kernel's stride) and at every
// buffer offset from 0 to 7, so the records are misaligned.
func TestDigestKernelMatchesPerRecord(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 3))
	tab := crc32.MakeTable(crc32.Castagnoli)
	counts := []int{0, 1, 2, 3, 4, 5, 6, 7, 98, 99, 100, 299, 300, 301}
	for _, n := range counts {
		for off := 0; off < 8; off++ {
			buf := make([]byte, off+100*n+8)
			for i := range buf {
				buf[i] = byte(rng.Uint32())
			}
			raw := buf[off : off+100*n]
			var want uint64
			for i := 0; i < n; i++ {
				want += uint64(crc32.Checksum(raw[100*i:100*i+100], tab))
			}
			if recs, sum := Tally(raw); recs != int64(n) || sum != want {
				t.Fatalf("kernel %v, %d records at offset %d: Tally %d, %016x; per record %d, %016x",
					crcKernel, n, off, recs, sum, n, want)
			}
			var a Accum
			a.Add(raw)
			if s := a.Summary(); s.Records != int64(n) || s.Checksum != want {
				t.Fatalf("kernel %v, %d records at offset %d: Add %d, %016x; per record %d, %016x",
					crcKernel, n, off, s.Records, s.Checksum, n, want)
			}
		}
	}
}

// BenchmarkTally digests the 163 records of a 16 KiB block; TestMain
// runs it on both digest paths.
func BenchmarkTally(b *testing.B) {
	raw := make([]byte, 163*100)
	for i := range raw {
		raw[i] = byte(i * 7)
	}
	b.SetBytes(int64(len(raw)))
	for b.Loop() {
		Tally(raw)
	}
}
