//go:build !race

// The allocation counts cannot be asserted under the race detector,
// which instruments allocations of its own.

package sortbench

import (
	"testing"

	"demsort/internal/elem"
)

var sinkRec elem.Rec100

// Generation allocates nothing per record: Record and the Reader's Read
// and record-aligned ReadAt allocate nothing at all, Generate and
// Skewed only the slice they return.
func TestGeneratorAllocations(t *testing.T) {
	r := NewReader(7, 1000, 1<<40)
	p := make([]byte, 8192)
	for name, c := range map[string]struct {
		f    func()
		want float64
	}{
		"Record":          {func() { sinkRec = Record(7, 123456) }, 0},
		"aligned ReadAt":  {func() { r.ReadAt(p[:64*100], 12345*100) }, 0},
		"Read":            {func() { r.Read(p) }, 0},
		"Generate(1000)":  {func() { Generate(7, 0, 1000) }, 1},
		"Skewed(1000, 5)": {func() { Skewed(7, 0, 1000, 5) }, 1},
	} {
		if got := testing.AllocsPerRun(50, c.f); got != c.want {
			t.Errorf("%s: %.1f allocations per call, want %.0f", name, got, c.want)
		}
	}
}
