package elem

import "encoding/binary"

// KeyedCodec is an optional extension of Codec: an order-preserving
// 64-bit normalized key. Sorting and merging on integer keys instead of
// comparator closures is the super-scalar trick of key-caching sorters
// (Bingmann's string sorting, MCSTL's multiway merge): the hot loops
// compare raw uint64s and fall back to Less only on equal keys.
//
// The contract is that unsigned key order is a coarsening of the codec
// order:
//
//	Key(a) <  Key(b)  ⇒  Less(a, b)
//	Less(a, b)        ⇒  Key(a) <= Key(b)
//
// KeyExact additionally promises that the key decides everything:
// equal keys mean equivalent elements (neither Less(a,b) nor
// Less(b,a)), so no comparator fallback is ever needed.
type KeyedCodec[T any] interface {
	Codec[T]
	// Key returns the order-preserving 64-bit key of v.
	Key(v T) uint64
	// KeyExact reports whether equal keys imply equivalent elements.
	KeyExact() bool
}

// Key implements KeyedCodec: a U64 is its own key.
func (U64Codec) Key(v U64) uint64 { return uint64(v) }

// KeyExact implements KeyedCodec.
func (U64Codec) KeyExact() bool { return true }

// Key implements KeyedCodec: the 64-bit key orders KV16 completely.
func (KV16Codec) Key(v KV16) uint64 { return v.Key }

// KeyExact implements KeyedCodec.
func (KV16Codec) KeyExact() bool { return true }

// Key implements KeyedCodec: the first 8 of the 10 key bytes,
// big-endian so unsigned integer order equals byte-lexicographic
// order. The 2-byte tail is not covered, so KeyExact is false and
// equal keys tie-break through Less.
func (Rec100Codec) Key(v Rec100) uint64 { return binary.BigEndian.Uint64(v[:8]) }

// KeyExact implements KeyedCodec.
func (Rec100Codec) KeyExact() bool { return false }

// Interface conformance.
var (
	_ KeyedCodec[U64]    = U64Codec{}
	_ KeyedCodec[KV16]   = KV16Codec{}
	_ KeyedCodec[Rec100] = Rec100Codec{}
)

// Keyed returns c's normalized keys: c itself when it is keyed. A
// closure-only codec gets the constant-zero, inexact key: every
// comparison then falls through to the Less tie-break, which is
// exactly the comparator-only order.
func Keyed[T any](c Codec[T]) KeyedCodec[T] {
	if kc, ok := c.(KeyedCodec[T]); ok {
		return kc
	}
	return zeroKey[T]{c}
}

type zeroKey[T any] struct{ Codec[T] }

func (zeroKey[T]) Key(T) uint64   { return 0 }
func (zeroKey[T]) KeyExact() bool { return false }

// BulkKeyer is an optional extension of KeyedCodec: extract the
// normalized keys of a whole slice in one call. The radix sort's first
// pass is a key-extraction scan over every element; a concrete bulk
// method turns its per-element dynamic dispatch into one static call
// per block, which the compiler can then unroll and vectorize.
// KeysInto must behave exactly like Key applied elementwise.
type BulkKeyer[T any] interface {
	// KeysInto fills dst[i] with the key of vs[i]; len(dst) >= len(vs).
	KeysInto(dst []uint64, vs []T)
}

// KeysInto implements BulkKeyer for U64.
func (U64Codec) KeysInto(dst []uint64, vs []U64) {
	for i, v := range vs {
		dst[i] = uint64(v)
	}
}

// KeysInto implements BulkKeyer for KV16.
func (KV16Codec) KeysInto(dst []uint64, vs []KV16) {
	for i := range vs {
		dst[i] = vs[i].Key
	}
}

// KeysInto implements BulkKeyer for Rec100.
func (Rec100Codec) KeysInto(dst []uint64, vs []Rec100) {
	for i := range vs {
		dst[i] = binary.BigEndian.Uint64(vs[i][:8])
	}
}

// Bulk-keyer conformance.
var (
	_ BulkKeyer[U64]    = U64Codec{}
	_ BulkKeyer[KV16]   = KV16Codec{}
	_ BulkKeyer[Rec100] = Rec100Codec{}
)

// KeysInto extracts the normalized keys of vs into dst, using the
// codec's bulk keyer when it has one and falling back to per-element
// Key calls otherwise. dst must hold at least len(vs) keys.
func KeysInto[T any](c Codec[T], dst []uint64, vs []T) {
	if bk, ok := c.(BulkKeyer[T]); ok {
		bk.KeysInto(dst, vs)
		return
	}
	kc := Keyed(c)
	for i, v := range vs {
		dst[i] = kc.Key(v)
	}
}
