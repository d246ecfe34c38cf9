package sortbench

// crcKernel selects crc100Sum for the record digest; it needs SSE4.2's
// CRC32 instruction. Tests clear it to run the per-record path.
var crcKernel = hasSSE42()

// crc100Sum returns the sum of the CRC-32C of each of the first recs
// 100-byte records of p, three records at a time (crc_amd64.s).
// len(p) must be at least 100·recs.
//
//go:noescape
func crc100Sum(p []byte, recs int) uint64

// hasSSE42 reports whether the CPU has SSE4.2 (CPUID leaf 1, ECX bit 20).
func hasSSE42() bool
