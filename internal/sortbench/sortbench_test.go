package sortbench

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"testing/iotest"

	"demsort/internal/elem"
	"demsort/internal/psort"
)

func TestGenerateDeterministicAndTiled(t *testing.T) {
	a := Generate(1, 0, 100)
	b := Generate(1, 0, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generator not deterministic")
		}
	}
	// Tiling: [0,50) + [50,100) must equal [0,100).
	lo := Generate(1, 0, 50)
	hi := Generate(1, 50, 50)
	both := append(lo, hi...)
	for i := range a {
		if a[i] != both[i] {
			t.Fatal("tiled generation differs")
		}
	}
	// Different seeds differ.
	c := Generate(2, 0, 100)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seed ignored")
	}
}

func TestRecordFormat(t *testing.T) {
	r := Record(3, 12345)
	for b := 0; b < 10; b++ {
		if r[b] < ' ' || r[b] > ' '+94 {
			t.Fatal("key byte outside printable range")
		}
	}
	if !bytes.Contains(r[10:30], []byte("12345")) {
		t.Fatal("payload lost the record index")
	}
}

func TestValidateDetectsSorted(t *testing.T) {
	recs := Generate(5, 0, 500)
	psort.Sort[elem.Rec100](elem.Rec100Codec{}, recs, 2)
	s := Validate(recs)
	if s.Unsorted != 0 {
		t.Fatalf("sorted stream reported %d inversions", s.Unsorted)
	}
	if s.Records != 500 {
		t.Fatalf("records %d", s.Records)
	}
}

func TestValidateDetectsUnsorted(t *testing.T) {
	recs := Generate(5, 0, 500) // raw generator order is unsorted
	s := Validate(recs)
	if s.Unsorted == 0 {
		t.Fatal("unsorted stream reported clean")
	}
}

func TestChecksumCatchesCorruption(t *testing.T) {
	recs := Generate(7, 0, 200)
	want := Validate(recs).Checksum
	recs[100][50] ^= 1 // payload corruption, key untouched
	if got := Validate(recs).Checksum; got == want {
		t.Fatal("checksum missed payload corruption")
	}
}

func TestChecksumOrderIndependent(t *testing.T) {
	recs := Generate(9, 0, 300)
	want := Validate(recs).Checksum
	rev := slices.Clone(recs)
	slices.Reverse(rev)
	if Validate(rev).Checksum != want {
		t.Fatal("checksum depends on order")
	}
}

func TestMergeSummariesDetectsBoundaryInversion(t *testing.T) {
	recs := Generate(11, 0, 400)
	psort.Sort[elem.Rec100](elem.Rec100Codec{}, recs, 2)
	ok := Merge([]Summary{Validate(recs[:200]), Validate(recs[200:])})
	if ok.Unsorted != 0 || ok.Records != 400 {
		t.Fatalf("clean split misreported: %+v", ok)
	}
	// Swap the halves: boundary inversion must be flagged.
	bad := Merge([]Summary{Validate(recs[200:]), Validate(recs[:200])})
	if bad.Unsorted == 0 {
		t.Fatal("boundary inversion missed")
	}
	// Checksums still match (same multiset).
	if bad.Checksum != ok.Checksum {
		t.Fatal("checksum should be order independent")
	}
}

func TestSkewedSharesHotPrefix(t *testing.T) {
	recs := Skewed(13, 0, 1000, 9)
	hot := 0
	for i := range recs {
		if bytes.HasPrefix(recs[i][:], []byte("HOTHOTHOT")) {
			hot++
		}
	}
	if hot < 800 || hot == len(recs) {
		t.Fatalf("hot fraction %d/1000, want ~900", hot)
	}
}

// The record format is pinned: the count, the Tally checksum and the
// first and last record of four tiles, as the generator wrote them
// when it went through math/rand/v2's Rand and fmt. Any change to a key
// byte, an index digit or a payload letter on any path fails here.
func TestGeneratorGolden(t *testing.T) {
	enc := func(recs []elem.Rec100) []byte { return elem.EncodeSlice(elem.Rec100Codec{}, recs) }
	read := func() []byte {
		raw, err := io.ReadAll(NewReader(2026, 50000, 50000))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for _, g := range []struct {
		name        string
		raw         []byte
		n           int64
		sum         uint64
		first, last string
	}{
		{"Generate(1, 0, 100000)", enc(Generate(1, 0, 100000)), 100000, 0x0000c336d0bab588,
			"noSF9^1!Uo00000000000000000000EFGHIJKLMNOPQRSTUVWXYZABCDEFGHIJKLMNOPQRSTUVWXYZABCDEFGHIJKLMNOPQRSTUV",
			"vrfvY\\'`2@00000000000000099999HIJKLMNOPQRSTUVWXYZABCDEFGHIJKLMNOPQRSTUVWXYZABCDEFGHIJKLMNOPQRSTUVWXY"},
		{"Generate(3, 123457, 5000)", enc(Generate(3, 123457, 5000)), 5000, 0x000009c1b15cdfe7,
			" 5jF!.IS^~00000000000000123457NOPQRSTUVWXYZABCDEFGHIJKLMNOPQRSTUVWXYZABCDEFGHIJKLMNOPQRSTUVWXYZABCDE",
			"b@l-goNciJ00000000000000128456UVWXYZABCDEFGHIJKLMNOPQRSTUVWXYZABCDEFGHIJKLMNOPQRSTUVWXYZABCDEFGHIJKL"},
		{"Skewed(3, 5, 10000, 7)", enc(Skewed(3, 5, 10000, 7)), 10000, 0x000013a7345ddb0f,
			"xJLF)8s)(S00000000000000000005JKLMNOPQRSTUVWXYZABCDEFGHIJKLMNOPQRSTUVWXYZABCDEFGHIJKLMNOPQRSTUVWXYZA",
			"HOTHOTHOT!00000000000000010004YZABCDEFGHIJKLMNOPQRSTUVWXYZABCDEFGHIJKLMNOPQRSTUVWXYZABCDEFGHIJKLMNOP"},
		{"ReadAll(NewReader(2026, 50000, 50000))", read(), 50000, 0x000061ab9a725fd7,
			"Q-HtPORScD00000000000000050000GHIJKLMNOPQRSTUVWXYZABCDEFGHIJKLMNOPQRSTUVWXYZABCDEFGHIJKLMNOPQRSTUVWX",
			"%hc@%9{3T;00000000000000099999HIJKLMNOPQRSTUVWXYZABCDEFGHIJKLMNOPQRSTUVWXYZABCDEFGHIJKLMNOPQRSTUVWXY"},
	} {
		n, sum := Tally(g.raw)
		if n != g.n || sum != g.sum || len(g.raw) != int(g.n)*100 {
			t.Errorf("%s: %d records (%d bytes), checksum %016x; want %d, %016x", g.name, n, len(g.raw), sum, g.n, g.sum)
			continue
		}
		if first, last := string(g.raw[:100]), string(g.raw[len(g.raw)-100:]); first != g.first || last != g.last {
			t.Errorf("%s: first %q last %q\nwant  first %q last %q", g.name, first, last, g.first, g.last)
		}
	}
}

// refRecord is the generator as it was written before the in-place
// kernel: math/rand/v2's Rand, fmt and a per-byte payload loop.
func refRecord(seed uint64, idx int64) elem.Rec100 {
	var r elem.Rec100
	rng := rand.New(rand.NewPCG(seed, uint64(idx)*0x9e3779b97f4a7c15+0xABCD))
	for b := 0; b < 10; b++ {
		r[b] = byte(' ' + rng.Uint64N(95))
	}
	copy(r[10:], fmt.Sprintf("%020d", idx))
	for b := 30; b < 100; b++ {
		r[b] = byte('A' + (idx+int64(b))%26)
	}
	return r
}

// Record equals the reference at indices the golden tiles do not
// reach: all 19 digits of an int64 in use, up to the largest index
// whose payload letters the reference computes without overflow.
func TestRecordMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 78))
	for _, seed := range []uint64{0, 1, 3, 2026, 1 << 63} {
		for i := range 3000 {
			idx := rng.Int64N(math.MaxInt64 - 99)
			if i < 3 {
				idx = math.MaxInt64 - 99 - int64(i)
			}
			if got, want := Record(seed, idx), refRecord(seed, idx); got != want {
				t.Fatalf("Record(%d, %d) = %q, want %q", seed, idx, got[:], want[:])
			}
		}
	}
}

// The streaming generator must produce exactly the bytes of the
// materialized tile, at awkward read sizes and tile offsets.
func TestReaderMatchesGenerate(t *testing.T) {
	const start, n = 3210, 999
	want := Generate(17, start, n)
	var wantBytes []byte
	for i := range want {
		wantBytes = append(wantBytes, want[i][:]...)
	}
	r := NewReader(17, start, n)
	got := make([]byte, 0, len(wantBytes))
	buf := make([]byte, 777) // deliberately not record-aligned
	for {
		k, err := r.Read(buf)
		got = append(got, buf[:k]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, wantBytes) {
		t.Fatalf("streamed %d bytes differ from Generate's %d", len(got), len(wantBytes))
	}
}

// ReadAt at random offsets and lengths — record-aligned ones (filled in
// place) and ones starting and ending mid-record, from concurrent
// goroutines — returns the bytes Read streams, and a read that runs
// past Size returns what there is and io.EOF.
func TestReaderReadAtMatchesRead(t *testing.T) {
	const start, n = 411, 300
	r := NewReader(5, start, n)
	stream, err := io.ReadAll(NewReader(5, start, n))
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != int64(len(stream)) {
		t.Fatalf("Size %d, stream %d bytes", r.Size(), len(stream))
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 9))
			for range 200 {
				off := rng.Int64N(r.Size())
				p := make([]byte, rng.IntN(450)+1)
				if g%2 == 0 {
					off -= off % 100
					p = make([]byte, 100*rng.IntN(5)+100)
				}
				k, err := r.ReadAt(p, off)
				want := stream[off:min(off+int64(len(p)), r.Size())]
				if k != len(want) || !bytes.Equal(p[:k], want) {
					t.Errorf("ReadAt(%d bytes, %d): %d bytes, want %d equal to Read's", len(p), off, k, len(want))
					return
				}
				if short := k < len(p); short != (err == io.EOF) || !short && err != nil {
					t.Errorf("ReadAt(%d bytes, %d) past Size %v: err %v", len(p), off, short, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if k, err := r.ReadAt(make([]byte, 10), r.Size()-3); k != 3 || err != io.EOF {
		t.Fatalf("read across the end: %d bytes, %v; want 3 and io.EOF", k, err)
	}
}

// The incremental valsort (Accum fed record-aligned chunks, and
// SummarizeReader over a raw stream) must agree with the slice-based
// Validate on every field.
func TestAccumAndSummarizeReaderMatchValidate(t *testing.T) {
	recs := Generate(23, 0, 500)
	psort.Sort[elem.Rec100](elem.Rec100Codec{}, recs[:250], 1) // half sorted, half not
	want := Validate(recs)

	var raw []byte
	for i := range recs {
		raw = append(raw, recs[i][:]...)
	}
	var a Accum
	for off := 0; off < len(raw); off += 300 { // 3-record chunks
		hi := off + 300
		if hi > len(raw) {
			hi = len(raw)
		}
		a.Add(raw[off:hi])
	}
	check := func(name string, got Summary) {
		t.Helper()
		if got.Records != want.Records || got.Unsorted != want.Unsorted ||
			got.Checksum != want.Checksum || got.Duplicate != want.Duplicate ||
			!bytes.Equal(got.FirstKey, want.FirstKey) || !bytes.Equal(got.LastKey, want.LastKey) {
			t.Fatalf("%s summary %+v != Validate %+v", name, got, want)
		}
	}
	check("Accum", a.Summary())

	got, err := SummarizeReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	check("SummarizeReader", got)

	if _, err := SummarizeReader(bytes.NewReader(raw[:150])); err == nil {
		t.Fatal("non-record-aligned stream must be rejected")
	}
}

// A read error is reported as itself even when it lands mid-record,
// not as a misaligned stream.
func TestSummarizeReaderReportsReadError(t *testing.T) {
	boom := errors.New("disk on fire")
	raw := elem.EncodeSlice(elem.Rec100Codec{}, Generate(5, 0, 4))
	r := io.MultiReader(bytes.NewReader(raw[:150]), iotest.ErrReader(boom))
	if _, err := SummarizeReader(r); !errors.Is(err, boom) {
		t.Fatalf("read error after 150 bytes reported as %v, want %v", err, boom)
	}
}

// Validate, Accum.Add fed uneven chunks and Tally all agree with
// valsort's definition, written out the slow way: the count, the sum of
// every record's CRC-32C, and adjacent keys compared as bytes. The keys
// differ in their last bytes and in bytes with the high bit set, where
// an integer compare could part from bytes.Compare.
func TestValidateAndAddMatchDefinition(t *testing.T) {
	recs := Generate(31, 0, 300)
	for i := range recs {
		switch i % 5 {
		case 1: // equal to the previous key but for byte 9
			copy(recs[i][:9], recs[i-1][:9])
		case 2: // a duplicate
			copy(recs[i][:10], recs[i-1][:10])
		case 3:
			recs[i][0] |= 0x80
		case 4:
			recs[i][8] |= 0x80
		}
	}
	var want Summary
	for i := range recs {
		want.Records++
		want.Checksum += uint64(crc32.Checksum(recs[i][:], crc32.MakeTable(crc32.Castagnoli)))
		if i > 0 {
			switch bytes.Compare(recs[i-1][:10], recs[i][:10]) {
			case 1:
				want.Unsorted++
			case 0:
				want.Duplicate++
			}
		}
	}
	want.FirstKey, want.LastKey = recs[0][:10], recs[len(recs)-1][:10]
	if want.Unsorted == 0 || want.Duplicate == 0 {
		t.Fatalf("fixture exercises too little: %+v", want)
	}
	check := func(name string, got Summary) {
		t.Helper()
		if got.Records != want.Records || got.Unsorted != want.Unsorted ||
			got.Checksum != want.Checksum || got.Duplicate != want.Duplicate ||
			!bytes.Equal(got.FirstKey, want.FirstKey) || !bytes.Equal(got.LastKey, want.LastKey) {
			t.Fatalf("%s summary %+v, definition %+v", name, got, want)
		}
	}
	check("Validate", Validate(recs))
	raw := elem.EncodeSlice(elem.Rec100Codec{}, recs)
	var a Accum
	for off, step := 0, 100; off < len(raw); off, step = off+step, step%700+100 {
		a.Add(raw[off:min(off+step, len(raw))])
	}
	check("Add", a.Summary())
	if n, sum := Tally(raw); n != want.Records || sum != want.Checksum {
		t.Fatalf("Tally: %d records, checksum %016x; definition %d, %016x", n, sum, want.Records, want.Checksum)
	}
}
