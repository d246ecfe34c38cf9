package psort

import (
	"unsafe"

	"demsort/internal/bufpool"
)

// The radix engine sorts (normalized key, original index) pairs and
// keeps its digit counts in per-worker histogram blocks. Both kinds of
// scratch are plain old data — no pointers — so they are drawn from
// the shared bufpool arena and reinterpreted, exactly like the codec
// bulk paths (elem/pod.go): a sort in steady state allocates no fresh
// pair or histogram memory. Elements are permuted in place, so no
// element-sized scratch exists — and none could come from the pool:
// []T is generic and may contain pointers, and pointers living in a
// pooled byte buffer would be invisible to the garbage collector.

// keyIdx is one radix element: the normalized key plus the element's
// original position (the payload of the sort). Pairs are ordered by
// (key, idx) — a total order with no duplicates — which is why the
// unstable in-place MSD partitions reproduce the stable sort exactly.
type keyIdx struct {
	key uint64
	idx int32
}

// pairBytes is the pooled footprint of one pair; membudget accounting
// (ScratchBytes) and the arena cast both rely on it holding the real
// layout, so the compile-time assert below pins it. The pair is 16
// bytes on 64-bit hosts, 12 where uint64 aligns to 4 (386); there the
// arena charges 4 bytes a pair it does not use, and plans stay the same.
const pairBytes = 16

var _ [pairBytes - unsafe.Sizeof(keyIdx{})]byte

// digitHist is one worker's byte-digit counts for all 8 digit
// positions, built in a single pass over the keys.
type digitHist [8][256]int32

const histBytes = 8 * 256 * 4

var (
	_ [histBytes - unsafe.Sizeof(digitHist{})]byte
	_ [unsafe.Sizeof(digitHist{}) - histBytes]byte
)

// arena owns the pooled scratch of one radix sort call. Two grabs
// happen (the pair buffer, the histogram block), so the registry is a
// fixed array and the arena itself never allocates. Callers arm
// `defer ar.release()` immediately after declaring it: every exit —
// including a panic unwinding out of a user codec's Key — returns the
// buffers to the pool.
type arena struct {
	bufs [2][]byte
	n    int
}

// grab draws nbytes from bufpool and registers the buffer for
// release, returning the base pointer for reinterpretation.
func (ar *arena) grab(nbytes int) unsafe.Pointer {
	b := bufpool.Get(nbytes)
	ar.bufs[ar.n] = b
	ar.n++
	return unsafe.Pointer(unsafe.SliceData(b))
}

// pairs returns an uninitialized pooled []keyIdx of length n. Contents
// are stale pool bytes; the build pass fully overwrites them before
// anything reads them.
func (ar *arena) pairs(n int) []keyIdx {
	p := ar.grab(n * pairBytes)
	if uintptr(p)%unsafe.Alignof(keyIdx{}) != 0 {
		// Unreachable with the gc allocator (≥64 B allocations are
		// 8-byte aligned) but keeps the cast unconditionally sound.
		return make([]keyIdx, n)
	}
	return unsafe.Slice((*keyIdx)(p), n)
}

// hists returns w zeroed per-worker histogram blocks.
func (ar *arena) hists(w int) []digitHist {
	p := ar.grab(w * histBytes)
	var hs []digitHist
	if uintptr(p)%unsafe.Alignof(digitHist{}) != 0 {
		hs = make([]digitHist, w)
	} else {
		hs = unsafe.Slice((*digitHist)(p), w)
	}
	for i := range hs {
		hs[i] = digitHist{} // pooled scratch is dirty; counts start at zero
	}
	return hs
}

// release returns every grabbed buffer to the pool. Safe to call with
// nothing grabbed; meant to be deferred so panic unwind releases too.
func (ar *arena) release() {
	for i := 0; i < ar.n; i++ {
		bufpool.Put(ar.bufs[i])
		ar.bufs[i] = nil
	}
	ar.n = 0
}
