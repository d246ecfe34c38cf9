package baseline

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"demsort/internal/elem"
	"demsort/internal/job"
	"demsort/internal/vtime"
	"demsort/internal/workload"
)

var kvc = elem.KV16Codec{}

func testConfig(p int) Config {
	cfg := DefaultConfig(p, 1<<13, 64*16)
	cfg.Model = vtime.Default()
	cfg.KeepOutput = true
	return cfg
}

func checkSorted(t *testing.T, res *Result[elem.KV16], input [][]elem.KV16) {
	t.Helper()
	var all []elem.KV16
	for _, part := range input {
		all = append(all, part...)
	}
	var flat []elem.KV16
	for _, part := range res.Output {
		if !elem.IsSorted[elem.KV16](kvc, part) {
			t.Fatal("a PE's output is not sorted")
		}
		flat = append(flat, part...)
	}
	if !elem.IsSorted[elem.KV16](kvc, flat) {
		t.Fatal("concatenated output not globally sorted")
	}
	if workload.Checksum(all) != workload.Checksum(flat) {
		t.Fatal("output is not a permutation of the input")
	}
}

func TestSampleSortUniform(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		cfg := testConfig(p)
		input := workload.Generate(workload.Uniform, p, 4000, 3)
		res, err := SampleSort[elem.KV16](kvc, cfg, input)
		if err != nil {
			t.Fatal(err)
		}
		checkSorted(t, res, input)
		if p > 1 && res.Imbalance() > 2.5 {
			t.Errorf("p=%d: imbalance %.2f on uniform input", p, res.Imbalance())
		}
	}
}

func TestSampleSortSkewCollapses(t *testing.T) {
	// The paper's §II critique: "In the worst case, it deteriorates to
	// a sequential algorithm since all the data ends up in a single
	// processor." With 90% of elements sharing one key, every hot
	// element routes to the same PE — splitters cannot cut inside a
	// key class.
	cfg := testConfig(8)
	input := workload.Generate(workload.HotKey, 8, 3000, 5)
	res, err := SampleSort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, res, input)
	if res.Imbalance() < 4.0 {
		t.Errorf("expected severe imbalance on hot-key input, got %.2f", res.Imbalance())
	}
}

func TestSampleSortAllEqual(t *testing.T) {
	// Degenerate ties: correctness must hold even though balance
	// cannot (all keys equal → one destination).
	cfg := testConfig(4)
	input := workload.Generate(workload.AllEqual, 4, 1000, 7)
	res, err := SampleSort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, res, input)
}

func TestSampleSortEmpty(t *testing.T) {
	cfg := testConfig(3)
	res, err := SampleSort[elem.KV16](kvc, cfg, [][]elem.KV16{{}, {}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 0 {
		t.Fatalf("N=%d", res.N)
	}
}

func TestExternalMergeSortSeq(t *testing.T) {
	cfg := testConfig(1)
	input := workload.Generate(workload.Uniform, 1, 9000, 9)
	res, err := SampleSort[elem.KV16](kvc, cfg, input) // at P = 1 the distribute pass degenerates to run formation
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, res, input)
}

// TestSampleSortLocalSortIO pins the local external sort's I/O: the
// merge reads every received element exactly once, and writes each once
// onto the volume when nobody wants the output — nothing with a Sink.
func TestSampleSortLocalSortIO(t *testing.T) {
	const p = 4
	input := workload.Generate(workload.Uniform, p, 20000, 13)
	for _, withSink := range []bool{false, true} {
		cfg := testConfig(p)
		cfg.KeepOutput = false
		if withSink {
			cfg.Sink = func(rank int, b []byte) error { return nil }
		}
		res, err := SampleSort[elem.KV16](kvc, cfg, input)
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, s := range res.PartSizes {
			n += s
		}
		want := n * int64(kvc.Size())
		if want == 0 {
			t.Fatal("test degenerate: nothing received")
		}
		read, written := res.PhaseBytes(PhaseLocalSort)
		if read != want {
			t.Errorf("sink=%v: local external sort read %d bytes, want %d", withSink, read, want)
		}
		if withSink {
			want = 0
		}
		if written != want {
			t.Errorf("sink=%v: local external sort wrote %d bytes, want %d", withSink, written, want)
		}
	}
}

func TestSampleSortImbalanceInflatesTime(t *testing.T) {
	// The overloaded PE dominates the modelled running time: hot-key
	// input must be substantially slower than uniform input of the
	// same size (the collapse the paper's §II describes).
	p := 8
	uni := workload.Generate(workload.Uniform, p, 3000, 11)
	hot := workload.Generate(workload.HotKey, p, 3000, 11)
	ures, err := SampleSort[elem.KV16](kvc, testConfig(p), uni)
	if err != nil {
		t.Fatal(err)
	}
	hres, err := SampleSort[elem.KV16](kvc, testConfig(p), hot)
	if err != nil {
		t.Fatal(err)
	}
	if !(hres.TotalWall() > 1.5*ures.TotalWall()) {
		t.Errorf("hot-key %.4fs vs uniform %.4fs — expected skew collapse", hres.TotalWall(), ures.TotalWall())
	}
}

// TestSampleSortSourceSinkMatchesSlices: the streaming plane must be a
// pure transport change — a Source/Sink run produces exactly the bytes
// of the slice-fed run, rank for rank, and reports the same part sizes,
// whether the Source is read in place or, forward-only, staged first.
func TestSampleSortSourceSinkMatchesSlices(t *testing.T) {
	const p = 4
	input := workload.Generate(workload.Uniform, p, 4000, 9)

	ref, err := SampleSort[elem.KV16](kvc, testConfig(p), input)
	if err != nil {
		t.Fatal(err)
	}

	var cfg Config
	for _, forward := range []bool{false, true} {
		cfg = testConfig(p)
		cfg.KeepOutput = false
		cfg.Source = func(rank int) (io.Reader, int64, error) {
			r := bytes.NewReader(elem.EncodeSlice(kvc, input[rank]))
			if forward {
				return struct{ io.Reader }{r}, int64(len(input[rank])), nil
			}
			return r, int64(len(input[rank])), nil
		}
		got := make([][]byte, p)
		var mu sync.Mutex
		cfg.Sink = func(rank int, b []byte) error {
			mu.Lock()
			got[rank] = append(got[rank], b...)
			mu.Unlock()
			return nil
		}
		res, err := SampleSort[elem.KV16](kvc, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for rank := 0; rank < p; rank++ {
			if !bytes.Equal(got[rank], elem.EncodeSlice(kvc, ref.Output[rank])) {
				t.Fatalf("forward-only=%v, rank %d: streamed output differs from the slice-fed run", forward, rank)
			}
			if res.PartSizes[rank] != ref.PartSizes[rank] {
				t.Fatalf("forward-only=%v, rank %d: part size %d vs %d", forward, rank, res.PartSizes[rank], ref.PartSizes[rank])
			}
		}
		// The output leaves once: with a Sink the merge writes no block.
		if _, written := res.PhaseBytes(PhaseLocalSort); written != 0 {
			t.Errorf("forward-only=%v: local external sort wrote %d bytes with a Sink", forward, written)
		}
		// The input is staged only when it cannot be read in place.
		want := int64(0)
		if forward {
			want = p * 4000 * 16
		}
		if _, written := res.PhaseBytes(job.PhaseLoad); written != want {
			t.Errorf("forward-only=%v: load wrote %d bytes, want %d", forward, written, want)
		}
	}

	// The contract is exclusive: Source plus slice input is a config
	// error, not a silent preference.
	bad := testConfig(p)
	bad.Source = cfg.Source
	if _, err := SampleSort[elem.KV16](kvc, bad, input); err == nil {
		t.Fatal("SampleSort accepted both a Source and slice input")
	}
}
