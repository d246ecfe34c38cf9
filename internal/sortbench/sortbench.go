// Package sortbench provides the SortBenchmark tooling the paper's
// evaluation relies on (§VI: "we made experiments on the
// well-established SortBenchmark, initiated by Jim Gray in 1984"):
// a gensort-style deterministic generator of 100-byte records with
// 10-byte keys, and a valsort-style validator checking order, record
// count and a duplicate-insensitive checksum.
//
// Every generator path (Record, Generate, Skewed, Reader) runs one
// in-place kernel that allocates nothing per record. The record format
// is pinned byte for byte by the package's golden test: a change that
// moves any byte of any input fails it.
package sortbench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"math/rand/v2"

	"demsort/internal/elem"
)

// Generate produces n records starting at record index start ≥ 0,
// deterministically from seed (matching runs of Generate with
// different start/n values tile the same global sequence, like
// gensort's -b flag).
func Generate(seed uint64, start, n int64) []elem.Rec100 {
	out := make([]elem.Rec100, n)
	for i := range out {
		fill(&out[i], seed, start+int64(i))
	}
	return out
}

// Record produces the idx-th record (idx ≥ 0) of the seed's sequence:
// a pseudo-random 10-byte key followed by a 90-byte payload carrying
// the record index (so provenance survives sorting).
func Record(seed uint64, idx int64) elem.Rec100 {
	var r elem.Rec100
	fill(&r, seed, idx)
	return r
}

// letters is the payload's period, A…Z, long enough that any of its 26
// phases can be copied 70 bytes at a time.
const letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZABCDEFGHIJKLMNOPQRSTUVWXYZABCDEFGHIJKLMNOPQRSTUVWXYZABCDEFGHIJKLMNOPQR"

// fill writes Record(seed, idx) into r without allocating: key byte b
// is ' ' + Uint64N(95) of a PCG seeded (seed, idx·φ + 0xABCD), bytes
// 10–29 are idx in 20 decimal digits, and byte b ≥ 30 is
// 'A' + (idx+b) mod 26. idx must be ≥ 0.
func fill(r *elem.Rec100, seed uint64, idx int64) {
	pcg := rand.NewPCG(seed, uint64(idx)*0x9e3779b97f4a7c15+0xABCD)
	for b := 0; b < 10; b++ {
		// Printable ASCII keys, as in gensort's default mode.
		r[b] = byte(' ' + uint64n(pcg, 95))
	}
	for b, v := 29, uint64(idx); b >= 10; b, v = b-1, v/10 {
		r[b] = byte('0' + v%10)
	}
	copy(r[30:], letters[(idx%26+30)%26:])
}

// uint64n is math/rand/v2's Rand.Uint64N(n) over pcg, computed as that
// package computes it on 64-bit platforms (Lemire's multiply with the
// -n % n rejection), so the keys stay those of rand.New(pcg).Uint64N.
// n must not be a power of two, which that method masks instead.
func uint64n(pcg *rand.PCG, n uint64) uint64 {
	hi, lo := bits.Mul64(pcg.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(pcg.Uint64(), n)
		}
	}
	return hi
}

// Skewed produces n records (start ≥ 0) whose keys all share a hot
// 9-byte prefix with probability hotIn10 in ten (duplicate-heavy
// SortBenchmark variant used in the skew experiments).
func Skewed(seed uint64, start, n int64, hotIn10 int) []elem.Rec100 {
	out := Generate(seed, start, n)
	for i := range out {
		if int(uint64n(rand.NewPCG(seed^0x55AA, uint64(start+int64(i))), 10)) < hotIn10 {
			copy(out[i][:9], "HOTHOTHOT")
		}
	}
	return out
}

// Reader streams the records of Generate(seed, start, n) as raw bytes
// without ever materializing the tile — the generator-backed
// core.Config.Source. Records are produced in small batches into an
// internal buffer, so memory stays O(1) regardless of n. Records are
// position-addressable, so the tile can also be read at any offset
// (ReadAt, Size), like a file: the sort then reads it in place.
type Reader struct {
	seed        uint64
	start, next int64 // first record of the tile, next one Read generates
	end         int64
	pending     []byte
	buf         [100 * 64]byte
}

// NewReader returns a Reader over records [start, start+n) of seed's
// sequence; start must be ≥ 0.
func NewReader(seed uint64, start, n int64) *Reader {
	return &Reader{seed: seed, start: start, next: start, end: start + n}
}

// Size returns the tile's length in bytes.
func (r *Reader) Size() int64 { return (r.end - r.start) * 100 }

// ReadAt implements io.ReaderAt: the tile's bytes from offset off. Whole
// records are generated straight into p; a read that starts or ends
// mid-record generates that record apart. It shares no state with Read
// or other ReadAt calls, so concurrent calls are safe.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("sortbench: ReadAt at negative offset %d", off)
	}
	n := 0
	for n < len(p) && off < r.Size() {
		idx, in := r.start+off/100, off%100
		c := 100
		if in == 0 && len(p)-n >= 100 {
			fill((*elem.Rec100)(p[n:]), r.seed, idx)
		} else {
			var rec elem.Rec100
			fill(&rec, r.seed, idx)
			c = copy(p[n:], rec[in:])
		}
		n += c
		off += int64(c)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if len(r.pending) == 0 {
		if r.next == r.end {
			return 0, io.EOF
		}
		batch := min(int64(len(r.buf)/100), r.end-r.next)
		for i := int64(0); i < batch; i++ {
			fill((*elem.Rec100)(r.buf[i*100:]), r.seed, r.next+i)
		}
		r.next += batch
		r.pending = r.buf[:batch*100]
	}
	n := copy(p, r.pending)
	r.pending = r.pending[n:]
	return n, nil
}

// Summary is valsort's digest of one record stream.
type Summary struct {
	Records  int64
	Unsorted int64 // order violations (adjacent inversions)
	// Checksum is the sum, modulo 2^64, of every record's CRC-32C
	// (Castagnoli) over all 100 bytes — SortBenchmark valsort's
	// convention: order-independent, so equal on the input and on any
	// permutation of it, and changed by any one corrupted byte.
	Checksum  uint64
	FirstKey  []byte
	LastKey   []byte
	Duplicate int64 // adjacent duplicate keys (informational)
}

// String renders the digest as valsort's summary line prints it.
func (s Summary) String() string {
	return fmt.Sprintf("records=%d unsorted=%d duplicates=%d checksum=%016x", s.Records, s.Unsorted, s.Duplicate, s.Checksum)
}

// Validate scans records and produces a Summary; a sorted stream has
// Unsorted == 0, and matching Checksum/Records against the generator's
// Summary proves the output is a permutation of the input.
func Validate(recs []elem.Rec100) Summary {
	var a Accum
	for i := range recs {
		a.Add(recs[i][:])
	}
	return a.Summary()
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// recordCRCs returns the sum, modulo 2^64, of the CRC-32C of each whole
// 100-byte record in raw: by the three-record kernel where the CPU has
// one, else record by record through hash/crc32.
func recordCRCs(raw []byte) (sum uint64) {
	if crcKernel {
		return crc100Sum(raw, len(raw)/100)
	}
	for off := 0; off+100 <= len(raw); off += 100 {
		sum += uint64(crc32.Checksum(raw[off:off+100], castagnoli))
	}
	return sum
}

// Tally counts and checksums a chunk of raw records, as Summary's
// Records and Checksum — the whole digest of an input, whose order
// means nothing. len(raw) must be a multiple of 100.
func Tally(raw []byte) (records int64, checksum uint64) {
	return int64(len(raw) / 100), recordCRCs(raw)
}

// Accum builds a Summary incrementally from record-aligned raw chunks
// — the streaming valsort that Sink callbacks and part-file readers
// feed without ever materializing a partition.
type Accum struct {
	sum    Summary
	hi, lo uint64 // the previous record's key: bytes 0–7 and 8–9, big-endian
	has    bool
}

// Add folds a chunk of raw records; len(raw) must be a multiple of 100
// (Sink chunks are element-aligned by construction). Keys are compared
// as two big-endian integers, which orders them as bytes.Compare does.
func (a *Accum) Add(raw []byte) {
	a.sum.Checksum += recordCRCs(raw)
	for off := 0; off+100 <= len(raw); off += 100 {
		rec := raw[off : off+100]
		hi, lo := binary.BigEndian.Uint64(rec), uint64(binary.BigEndian.Uint16(rec[8:]))
		switch {
		case !a.has:
			a.sum.FirstKey = append([]byte(nil), rec[:10]...)
			a.has = true
		case hi < a.hi || hi == a.hi && lo < a.lo:
			a.sum.Unsorted++
		case hi == a.hi && lo == a.lo:
			a.sum.Duplicate++
		}
		a.hi, a.lo = hi, lo
	}
	a.sum.Records += int64(len(raw) / 100)
}

// Summary returns the digest folded so far.
func (a *Accum) Summary() Summary {
	s := a.sum
	if a.has {
		s.LastKey = binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint64(nil, a.hi), uint16(a.lo))
	}
	return s
}

// SummarizeReader digests a raw record byte stream to EOF — the
// O(1)-memory way to valsort a part file or an input tile. A read
// error is reported as itself, wherever in a record it lands.
func SummarizeReader(r io.Reader) (Summary, error) {
	var a Accum
	buf := make([]byte, 100*512)
	for {
		n, err := io.ReadFull(r, buf)
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return a.Summary(), err
		}
		if n%100 != 0 {
			return a.Summary(), fmt.Errorf("sortbench: stream not record-aligned (%d trailing bytes)", n%100)
		}
		a.Add(buf[:n])
		if err != nil {
			return a.Summary(), nil
		}
	}
}

// Merge combines per-partition summaries in partition order, adding
// cross-boundary order checks — validating a distributed sorted output
// without materialising it in one place.
func Merge(parts []Summary) Summary {
	var s Summary
	var prevLast []byte
	for _, p := range parts {
		s.Records += p.Records
		s.Unsorted += p.Unsorted
		s.Checksum += p.Checksum
		s.Duplicate += p.Duplicate
		if p.Records == 0 {
			continue
		}
		if prevLast != nil && bytes.Compare(prevLast, p.FirstKey) > 0 {
			s.Unsorted++
		}
		if s.FirstKey == nil {
			s.FirstKey = p.FirstKey
		}
		prevLast = p.LastKey
		s.LastKey = p.LastKey
	}
	return s
}
