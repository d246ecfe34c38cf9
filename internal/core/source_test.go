package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"demsort/internal/blockio"
	"demsort/internal/elem"
	"demsort/internal/sortbench"
	"demsort/internal/workload"
)

// TestSortSourceMatchesSliceInput is the streaming-input property:
// feeding the same bytes through Config.Source must produce output
// byte-identical to the slice-input path, at P ∈ {1, 4}, on RAM and
// file-backed stores.
func TestSortSourceMatchesSliceInput(t *testing.T) {
	for _, p := range []int{1, 4} {
		for _, store := range []string{"ram", "file"} {
			t.Run(fmt.Sprintf("p%d_%s", p, store), func(t *testing.T) {
				input := inputFor(testConfig(p), workload.Uniform, 5200, 19)

				ref, err := Sort[elem.KV16](kvc, testConfig(p), input)
				if err != nil {
					t.Fatal(err)
				}

				cfg := testConfig(p)
				if store == "file" {
					cfg.NewStore = blockio.FileStoreFactory(t.TempDir(), cfg.BlockBytes)
				}
				cfg.Source = func(rank int) (io.Reader, int64, error) {
					return bytes.NewReader(elem.EncodeSlice(kvc, input[rank])), int64(len(input[rank])), nil
				}
				res, err := Sort[elem.KV16](kvc, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				for rank := 0; rank < p; rank++ {
					if len(res.Output[rank]) != len(ref.Output[rank]) {
						t.Fatalf("rank %d: source path output %d elements, slice path %d",
							rank, len(res.Output[rank]), len(ref.Output[rank]))
					}
					for i := range res.Output[rank] {
						if res.Output[rank][i] != ref.Output[rank][i] {
							t.Fatalf("rank %d: source and slice outputs differ at %d", rank, i)
						}
					}
				}
			})
		}
	}
}

// failingReader delivers limit bytes from r, then fails.
type failingReader struct {
	r     io.Reader
	limit int64
	err   error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.limit <= 0 {
		return 0, f.err
	}
	if int64(len(p)) > f.limit {
		p = p[:f.limit]
	}
	n, err := f.r.Read(p)
	f.limit -= int64(n)
	return n, err
}

// A Source that fails mid-stream must abort the sort with its error —
// and must not leave the machine wedged.
func TestSortSourceErrorAborts(t *testing.T) {
	srcErr := errors.New("input device vanished")
	cfg := testConfig(2)
	cfg.KeepOutput = false
	input := inputFor(cfg, workload.Uniform, 5000, 23)
	cfg.Source = func(rank int) (io.Reader, int64, error) {
		r := bytes.NewReader(elem.EncodeSlice(kvc, input[rank]))
		if rank == 1 {
			return &failingReader{r: r, limit: 4096, err: srcErr}, int64(len(input[rank])), nil
		}
		return r, int64(len(input[rank])), nil
	}
	_, err := Sort[elem.KV16](kvc, cfg, nil)
	if err == nil || !errors.Is(err, srcErr) {
		t.Fatalf("source error must abort the sort, got %v", err)
	}
}

// A Source reporting fewer bytes than its count is a short read, not a
// hang or a silent truncation.
func TestSortSourceShortStream(t *testing.T) {
	cfg := testConfig(2)
	cfg.KeepOutput = false
	input := inputFor(cfg, workload.Uniform, 5000, 29)
	cfg.Source = func(rank int) (io.Reader, int64, error) {
		enc := elem.EncodeSlice(kvc, input[rank])
		return bytes.NewReader(enc[:len(enc)/2]), int64(len(input[rank])), nil
	}
	if _, err := Sort[elem.KV16](kvc, cfg, nil); err == nil {
		t.Fatal("short source stream must fail the sort")
	}
}

func TestSortSourceRejectsBothInputs(t *testing.T) {
	cfg := testConfig(1)
	cfg.Source = func(rank int) (io.Reader, int64, error) { return bytes.NewReader(nil), 0, nil }
	if _, err := Sort[elem.KV16](kvc, cfg, [][]elem.KV16{{}}); err == nil {
		t.Fatal("Source plus input slices must be rejected")
	}
}

// TestSortSourceLoadPeakIsBlockSized pins the O(m) claim of the
// streaming loader: an -infile-style run (gensort records streamed
// from a Source onto a file-backed store) charges the load phase only
// its bounded staging — FillFrom's three chunks, whether or not the
// sort itself overlaps — never the tile, which is three orders of
// magnitude larger.
func TestSortSourceLoadPeakIsBlockSized(t *testing.T) {
	const p = 2
	const nPer = 20000 // records per rank; tile = 2,000,000 bytes
	for _, overlap := range []bool{false, true} {
		rc := elem.Rec100Codec{}
		cfg := DefaultConfig(p, 1<<13, 10*100)
		cfg.Seed = 5
		cfg.Overlap = overlap
		cfg.NewStore = blockio.FileStoreFactory(t.TempDir(), cfg.BlockBytes)
		cfg.Source = func(rank int) (io.Reader, int64, error) {
			return sortbench.NewReader(77, int64(rank)*nPer, nPer), nPer, nil
		}
		cfg.Sink = func(rank int, b []byte) error { return nil }
		res, err := Sort[elem.Rec100](rc, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		bElem := int64(res.BlockElems)
		stage := 3 * bElem
		for rank, peak := range res.LoadPeakMemElems {
			if peak > stage {
				t.Errorf("overlap=%v rank %d: load phase held %d elements, want <= staging bound (%d)", overlap, rank, peak, stage)
			}
			if peak == 0 {
				t.Errorf("overlap=%v rank %d: load phase charged nothing — the staging buffer is untracked", overlap, rank)
			}
		}
		if bElem*100 > nPer {
			t.Fatalf("test degenerate: block (%d elems) not far below the tile (%d)", bElem, nPer)
		}
		if res.N != int64(p)*nPer {
			t.Fatalf("overlap=%v: N = %d, want %d", overlap, res.N, int64(p)*nPer)
		}
	}
}
