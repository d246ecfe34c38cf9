//go:build !amd64

package sortbench

// crcKernel is false: this architecture has no record digest kernel.
var crcKernel = false

func crc100Sum([]byte, int) uint64 { panic("sortbench: no record digest kernel") }
