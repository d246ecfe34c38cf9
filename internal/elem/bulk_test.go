package elem

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"

	"demsort/internal/bufpool"
)

// perElemEncode is the reference per-element encoding path, bypassing
// the POD memmove.
func perElemEncode[T any](c Codec[T], vs []T) []byte {
	sz := c.Size()
	buf := make([]byte, len(vs)*sz)
	for i, v := range vs {
		c.Encode(buf[i*sz:(i+1)*sz], v)
	}
	return buf
}

// perElemDecode is the reference per-element decoding path.
func perElemDecode[T any](c Codec[T], buf []byte, n int) []T {
	sz := c.Size()
	out := make([]T, n)
	for i := range out {
		out[i] = c.Decode(buf[i*sz : (i+1)*sz])
	}
	return out
}

// checkBulkAgreement: EncodeInto and DecodeInto, which take the POD
// memmove for a built-in codec, agree with the per-element loop.
func checkBulkAgreement[T comparable](t *testing.T, c Codec[T], vs []T) {
	t.Helper()
	ref := perElemEncode(c, vs)

	bulk := make([]byte, len(vs)*c.Size())
	EncodeInto(c, bulk, vs)
	if !bytes.Equal(bulk, ref) {
		t.Fatalf("EncodeInto disagrees with per-element encode (%d elements)", len(vs))
	}
	if got := EncodeSlice(c, vs); !bytes.Equal(got, ref) {
		t.Fatalf("EncodeSlice disagrees with per-element encode")
	}

	dec := make([]T, len(vs))
	DecodeInto(c, dec, ref)
	refDec := perElemDecode(c, ref, len(vs))
	for i := range vs {
		if dec[i] != vs[i] {
			t.Fatalf("DecodeInto round trip mismatch at %d", i)
		}
		if refDec[i] != vs[i] {
			t.Fatalf("per-element decode round trip mismatch at %d", i)
		}
	}
}

func TestBulkCodecAgreesU64(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for _, n := range []int{0, 1, 2, 7, 64, 1023} {
		vs := make([]U64, n)
		for i := range vs {
			vs[i] = U64(rng.Uint64())
		}
		checkBulkAgreement[U64](t, U64Codec{}, vs)
	}
}

func TestBulkCodecAgreesKV16(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for _, n := range []int{0, 1, 2, 7, 64, 1023} {
		vs := make([]KV16, n)
		for i := range vs {
			vs[i] = KV16{Key: rng.Uint64(), Val: rng.Uint64()}
		}
		checkBulkAgreement[KV16](t, KV16Codec{}, vs)
	}
}

func TestBulkCodecAgreesRec100(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	for _, n := range []int{0, 1, 2, 7, 64, 257} {
		vs := make([]Rec100, n)
		for i := range vs {
			for j := range vs[i] {
				vs[i][j] = byte(rng.UintN(256))
			}
		}
		checkBulkAgreement[Rec100](t, Rec100Codec{}, vs)
	}
}

// Records whose 10-byte keys tie must still round-trip byte-for-byte:
// the payload bytes distinguish them on the wire even though the order
// does not.
func TestBulkCodecRec100KeyTies(t *testing.T) {
	c := Rec100Codec{}
	vs := make([]Rec100, 16)
	for i := range vs {
		// Identical keys, distinct payloads.
		for j := 0; j < 10; j++ {
			vs[i][j] = 0xAB
		}
		for j := 10; j < 100; j++ {
			vs[i][j] = byte(i*7 + j)
		}
	}
	for i := 1; i < len(vs); i++ {
		if c.Less(vs[i-1], vs[i]) || c.Less(vs[i], vs[i-1]) {
			t.Fatal("test premise broken: keys must tie")
		}
	}
	checkBulkAgreement[Rec100](t, c, vs)
}

// foreignU64 has U64Codec's layout and wire format but is not a
// built-in codec value, so it is not POD: EncodeInto, DecodeInto and
// View must take the per-element path for it — the contract for any
// codec outside this package — and give the same bytes.
type foreignU64 struct{}

func (foreignU64) Size() int              { return 8 }
func (foreignU64) Encode(d []byte, v U64) { U64Codec{}.Encode(d, v) }
func (foreignU64) Decode(s []byte) U64    { return U64Codec{}.Decode(s) }
func (foreignU64) Less(a, b U64) bool     { return a < b }

func TestDispatchFallbackMatchesBulk(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	vs := make([]U64, 333)
	for i := range vs {
		vs[i] = U64(rng.Uint64())
	}
	var fallback Codec[U64] = foreignU64{}
	if pod(fallback) || pod[U64](U64Codec{}) != hostLE || !pod[Rec100](Rec100Codec{}) {
		t.Fatal("test premise broken: only the built-in codecs are POD")
	}
	a := EncodeSlice[U64](U64Codec{}, vs)
	b := EncodeSlice(fallback, vs)
	if !bytes.Equal(a, b) || !bytes.Equal(b, perElemEncode(fallback, vs)) {
		t.Fatal("fallback encode disagrees with the built-in codec's")
	}
	da := DecodeSlice[U64](U64Codec{}, a, len(vs))
	db := DecodeSlice(fallback, b, len(vs))
	for i := range vs {
		if da[i] != vs[i] || db[i] != vs[i] {
			t.Fatalf("decode mismatch at %d", i)
		}
	}
}

// The bulk paths must be allocation-free given preallocated buffers.
func TestBulkPathsAllocFree(t *testing.T) {
	c := KV16Codec{}
	vs := make([]KV16, 4096)
	for i := range vs {
		vs[i] = KV16{Key: uint64(i) * 2654435761, Val: uint64(i)}
	}
	buf := make([]byte, len(vs)*c.Size())
	dst := make([]KV16, len(vs))

	if n := testing.AllocsPerRun(100, func() { EncodeInto[KV16](c, buf, vs) }); n > 0 {
		t.Errorf("EncodeInto allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { DecodeInto[KV16](c, dst, buf) }); n > 0 {
		t.Errorf("DecodeInto allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		dst = AppendDecode[KV16](c, dst[:0], buf, len(vs))
	}); n > 0 {
		t.Errorf("AppendDecode with capacity allocates %.1f/op, want 0", n)
	}
	enc := make([]byte, 0, len(vs)*c.Size())
	if n := testing.AllocsPerRun(100, func() {
		enc = AppendEncode[KV16](c, enc[:0], vs)
	}); n > 0 {
		t.Errorf("AppendEncode with capacity allocates %.1f/op, want 0", n)
	}

	// DecodeSlice/EncodeSlice allocate exactly their result.
	if n := testing.AllocsPerRun(100, func() { _ = EncodeSlice[KV16](c, vs) }); n > 1 {
		t.Errorf("EncodeSlice allocates %.1f/op, want <= 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = DecodeSlice[KV16](c, buf, len(vs)) }); n > 1 {
		t.Errorf("DecodeSlice allocates %.1f/op, want <= 1", n)
	}
}

// TestView: a built-in codec's view of an aligned buffer is the buffer
// itself — writes through it show in the bytes, and a bufpool buffer is
// aligned for all three element types; a misaligned KV16 buffer and a
// codec outside this package decode into a fresh slice instead; a buffer shorter
// than one element has no elements.
func TestView(t *testing.T) {
	aliases := func(vs any, b []byte) bool {
		switch vs := vs.(type) {
		case []U64:
			return len(vs) > 0 && unsafe.Pointer(&vs[0]) == unsafe.Pointer(&b[0])
		case []KV16:
			return len(vs) > 0 && unsafe.Pointer(&vs[0]) == unsafe.Pointer(&b[0])
		case []Rec100:
			return len(vs) > 0 && unsafe.Pointer(&vs[0]) == unsafe.Pointer(&b[0])
		}
		return false
	}
	kv := []KV16{{Key: 3, Val: 30}, {Key: 1, Val: 10}, {Key: 2, Val: 20}}
	b := bufpool.Get(3*16 + 1)
	defer bufpool.Put(b)
	EncodeInto[KV16](KV16Codec{}, b, kv)
	v := View[KV16](KV16Codec{}, b) // the trailing partial element is not one
	if !slices.Equal(v, kv) || !aliases(v, b) {
		t.Fatalf("View = %v (aliases %v), want %v in place", v, aliases(v, b), kv)
	}
	v[1].Val = 11
	if got := (KV16Codec{}).Decode(b[16:]); got.Val != 11 {
		t.Fatalf("a write through the view left the bytes at %v", got)
	}
	mis := make([]byte, 2*16+1)[1:]
	EncodeInto[KV16](KV16Codec{}, mis, kv[:2])
	if v := View[KV16](KV16Codec{}, mis); !slices.Equal(v, kv[:2]) || aliases(v, mis) {
		t.Fatalf("misaligned View = %v (aliases %v), want a decoded %v", v, aliases(v, mis), kv[:2])
	}
	u := make([]byte, 16)
	U64Codec{}.Encode(u, 7)
	if v := View[U64](foreignU64{}, u); len(v) != 2 || v[0] != 7 || aliases(v, u) {
		t.Fatalf("foreign codec's View = %v, want a decoded [7 0]", v)
	}
	if v := View[KV16](KV16Codec{}, b[:15]); len(v) != 0 {
		t.Fatalf("View of 15 bytes = %v, want no elements", v)
	}
	for _, c := range []struct {
		view func([]byte) any
		size int
	}{
		{func(b []byte) any { return View[U64](U64Codec{}, b) }, 8},
		{func(b []byte) any { return View[KV16](KV16Codec{}, b) }, 16},
		{func(b []byte) any { return View[Rec100](Rec100Codec{}, b) }, 100},
	} {
		b := bufpool.Get(5 * c.size)
		if !aliases(c.view(b), b) {
			t.Errorf("the %d-byte codec's view of a bufpool buffer is not in place", c.size)
		}
		bufpool.Put(b)
	}
}
