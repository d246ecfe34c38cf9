package elem

import (
	"encoding/binary"
	"unsafe"
)

// The built-in element types are POD: their in-memory layout on a
// little-endian host is byte-identical to the little-endian wire
// format, so bulk encode/decode reduces to one memmove. The fast paths
// below reinterpret the element slice as raw bytes; on a big-endian
// host (or if a layout assumption ever broke) they fall back to the
// per-element loop, so the wire format stays little-endian everywhere.

// hostLE reports whether this host stores integers little-endian.
var hostLE = binary.NativeEndian.Uint16([]byte{0x34, 0x12}) == 0x1234

// Compile-time layout guarantees for the reinterpretation casts: a
// negative array length fails the build if a size drifts from the wire
// format.
var (
	_ [unsafe.Sizeof(U64(0)) - 8]byte
	_ [8 - unsafe.Sizeof(U64(0))]byte
	_ [unsafe.Sizeof(KV16{}) - 16]byte
	_ [16 - unsafe.Sizeof(KV16{})]byte
	_ [unsafe.Sizeof(Rec100{}) - 100]byte
	_ [100 - unsafe.Sizeof(Rec100{})]byte
)

// podBytes reinterprets vs as its backing bytes (size = Sizeof(T)).
func podBytes[T any](vs []T, size int) []byte {
	if len(vs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&vs[0])), len(vs)*size)
}

// EncodeSliceInto implements BulkCodec.
func (U64Codec) EncodeSliceInto(dst []byte, vs []U64) {
	if hostLE {
		copy(dst[:len(vs)*8], podBytes(vs, 8))
		return
	}
	for i, v := range vs {
		binary.LittleEndian.PutUint64(dst[i*8:], uint64(v))
	}
}

// DecodeSliceInto implements BulkCodec.
func (U64Codec) DecodeSliceInto(dst []U64, src []byte) {
	if hostLE {
		copy(podBytes(dst, 8), src[:len(dst)*8])
		return
	}
	for i := range dst {
		dst[i] = U64(binary.LittleEndian.Uint64(src[i*8:]))
	}
}

// EncodeSliceInto implements BulkCodec.
func (KV16Codec) EncodeSliceInto(dst []byte, vs []KV16) {
	if hostLE {
		copy(dst[:len(vs)*16], podBytes(vs, 16))
		return
	}
	for i, v := range vs {
		binary.LittleEndian.PutUint64(dst[i*16:], v.Key)
		binary.LittleEndian.PutUint64(dst[i*16+8:], v.Val)
	}
}

// DecodeSliceInto implements BulkCodec.
func (KV16Codec) DecodeSliceInto(dst []KV16, src []byte) {
	if hostLE {
		copy(podBytes(dst, 16), src[:len(dst)*16])
		return
	}
	for i := range dst {
		dst[i].Key = binary.LittleEndian.Uint64(src[i*16:])
		dst[i].Val = binary.LittleEndian.Uint64(src[i*16+8:])
	}
}

// EncodeSliceInto implements BulkCodec. Rec100 is raw bytes, so the
// reinterpretation is valid regardless of host endianness.
func (Rec100Codec) EncodeSliceInto(dst []byte, vs []Rec100) {
	copy(dst[:len(vs)*100], podBytes(vs, 100))
}

// DecodeSliceInto implements BulkCodec.
func (Rec100Codec) DecodeSliceInto(dst []Rec100, src []byte) {
	copy(podBytes(dst, 100), src[:len(dst)*100])
}

// View returns b's whole elements as a []T. For the built-in POD codecs,
// when T's layout is the wire format on this host and b is aligned for
// T, the result is b itself, reinterpreted in place; otherwise it is
// decoded into a fresh slice. Either way the caller keeps b, unchanged,
// until it is done with the result, so a caller has one path for both.
func View[T any](c Codec[T], b []byte) []T {
	n := len(b) / c.Size()
	if n == 0 {
		return nil
	}
	var pod bool
	switch any(c).(type) {
	case U64Codec, KV16Codec:
		pod = hostLE
	case Rec100Codec:
		pod = true
	}
	if p := unsafe.Pointer(&b[0]); pod && uintptr(p)%unsafe.Alignof(*new(T)) == 0 {
		return unsafe.Slice((*T)(p), n)
	}
	return DecodeSlice(c, b, n)
}

// Interface conformance.
var (
	_ BulkCodec[U64]    = U64Codec{}
	_ BulkCodec[KV16]   = KV16Codec{}
	_ BulkCodec[Rec100] = Rec100Codec{}
)
