package elem

import (
	"encoding/binary"
	"unsafe"
)

// An element type is POD under a codec when its in-memory layout on this
// host is byte-identical to the codec's wire format: a []T and its
// encoding are then the same bytes, so EncodeInto and DecodeInto are one
// memmove and View reads a buffer in place. pod is the one place that
// decides it, for the built-in codec values only: Rec100 is raw bytes on
// every host; U64 and KV16 are little-endian on the wire, so on a
// big-endian host they take the per-element loop like every other codec.
// The wire format is the same on every host.

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

// pod reports whether c's elements are their wire bytes on this host.
func pod[T any](c Codec[T]) bool {
	switch any(c).(type) {
	case U64Codec, KV16Codec:
		return hostLE
	case Rec100Codec:
		return true
	}
	return false
}

// podBytes reinterprets vs as its backing bytes (size = Sizeof(T)).
func podBytes[T any](vs []T, size int) []byte {
	if len(vs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&vs[0])), len(vs)*size)
}

// InPlace returns b's whole elements reinterpreted in place when c is
// POD and b is aligned for T, nil otherwise.
func InPlace[T any](c Codec[T], b []byte) []T {
	n := len(b) / c.Size()
	if n == 0 || !pod(c) {
		return nil
	}
	if p := unsafe.Pointer(&b[0]); uintptr(p)%unsafe.Alignof(*new(T)) == 0 {
		return unsafe.Slice((*T)(p), n)
	}
	return nil
}

// View returns b's whole elements as a []T. For a POD codec, when b is
// aligned for T, the result is b itself, reinterpreted in place;
// otherwise it is decoded into a fresh slice, at the call. Either way the
// caller keeps b, unchanged, until it is done with the result, so a
// caller has one path for both.
func View[T any](c Codec[T], b []byte) []T {
	if vs := InPlace(c, b); vs != nil || len(b) < c.Size() {
		return vs
	}
	return DecodeSlice(c, b, len(b)/c.Size())
}

// OutView is View for a buffer about to be written: a []T of b's whole
// elements whose wire bytes WriteBack puts into b — b itself,
// reinterpreted, where View would read b in place, a fresh slice (no
// decode) otherwise.
func OutView[T any](c Codec[T], b []byte) []T {
	if vs := InPlace(c, b); vs != nil {
		return vs
	}
	return make([]T, len(b)/c.Size())
}

// WriteBack returns the wire bytes of vs, a prefix of OutView(c, b), in
// b: nothing moves when vs views b in place; any other vs is encoded
// into b.
func WriteBack[T any](c Codec[T], b []byte, vs []T) []byte {
	n := len(vs) * c.Size()
	if n > 0 && unsafe.Pointer(unsafe.SliceData(vs)) != unsafe.Pointer(unsafe.SliceData(b)) {
		EncodeInto(c, b, vs)
	}
	return b[:n]
}
