// Package bufpool is the shared byte-buffer arena of the data plane:
// a size-classed sync.Pool that block I/O, the all-to-all send/receive
// paths and the phase writers draw their staging buffers from, so the
// steady state of a sort allocates no fresh memory per block or per
// message. Buffers cross goroutine (PE) boundaries freely — a message
// buffer is typically acquired by the sender and recycled by the
// receiver after decoding — which is safe because sync.Pool is
// concurrency-safe and ownership is handed off at the collective.
package bufpool

import (
	"math/bits"
	"sync"
	"unsafe"
)

const (
	// minBits is the smallest pooled size class (64 B): tinier buffers
	// are cheaper to allocate than to pool.
	minBits = 6
	// maxBits is the largest pooled size class (64 MiB): anything
	// larger is a configuration outlier not worth retaining.
	maxBits = 26
)

var classes [maxBits + 1]sync.Pool

// class returns the smallest size class that holds n bytes.
func class(n int) int {
	c := bits.Len(uint(n - 1))
	if c < minBits {
		c = minBits
	}
	return c
}

// Pooled buffers are stored as the raw pointer to their backing array,
// not as *[]byte: converting a pointer to an interface does not
// allocate, so Get/Put are themselves allocation-free — pooling a
// slice header would cost one heap allocation per Put and defeat the
// point. The class index reconstructs the capacity on Get.

// Get returns a buffer of length n (capacity rounded up to the size
// class), reusing a pooled one when available. Get(0) returns nil.
func Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	c := class(n)
	if c > maxBits {
		return make([]byte, n)
	}
	if p, _ := classes[c].Get().(unsafe.Pointer); p != nil {
		return unsafe.Slice((*byte)(p), 1<<c)[:n]
	}
	return make([]byte, n, 1<<c)
}

// poisonByte is what Put writes over a recycled buffer in race builds.
const poisonByte = 0xDB

// Put returns a buffer to the arena. The buffer must not be used after
// the call: in race builds Put overwrites its whole capacity with
// poisonByte, so a use after Put corrupts what the tests check. Buffers
// below the minimum class or above the maximum are dropped;
// append-grown buffers are filed under the largest class their capacity
// fully backs.
func Put(b []byte) {
	if b = b[:cap(b)]; poison {
		for i := range b {
			b[i] = poisonByte
		}
	}
	c := bits.Len(uint(cap(b))) - 1 // floor: cap(b) >= 1<<c
	if c < minBits || c > maxBits {
		return
	}
	classes[c].Put(unsafe.Pointer(unsafe.SliceData(b)))
}
