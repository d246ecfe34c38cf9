package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"demsort/internal/blockio"
	"demsort/internal/elem"
	"demsort/internal/job"
	"demsort/internal/sortbench"
	"demsort/internal/stripesort"
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

// failingReaderAt serves reads in place below byte limit of r and fails
// every read that reaches past it.
type failingReaderAt struct {
	*bytes.Reader
	limit int64
	err   error
}

func (f *failingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > f.limit {
		return 0, f.err
	}
	return f.Reader.ReadAt(p, off)
}

// A Source that fails mid-stream must abort the sort with its error —
// and must not leave the machine wedged. A forward-only reader fails in
// the load; one read in place fails inside run formation, while the
// other PEs are already in the run's collectives.
func TestSortSourceErrorAborts(t *testing.T) {
	for _, direct := range []bool{false, true} {
		srcErr := errors.New("input device vanished")
		cfg := testConfig(2)
		cfg.KeepOutput = false
		input := inputFor(cfg, workload.Uniform, 5000, 23)
		cfg.Source = func(rank int) (io.Reader, int64, error) {
			r := bytes.NewReader(elem.EncodeSlice(kvc, input[rank]))
			switch {
			case rank != 1:
				return r, int64(len(input[rank])), nil
			case direct:
				return &failingReaderAt{Reader: r, limit: 4096, err: srcErr}, int64(len(input[rank])), nil
			default:
				return &failingReader{r: r, limit: 4096, err: srcErr}, int64(len(input[rank])), nil
			}
		}
		_, err := Sort[elem.KV16](kvc, cfg, nil)
		if err == nil || !errors.Is(err, srcErr) {
			t.Fatalf("direct=%v: source error must abort the sort, got %v", direct, err)
		}
		if direct && !strings.Contains(err.Error(), "input source, rank 1") {
			t.Fatalf("an in-place read error must name the rank: %v", err)
		}
	}
}

// forwardOnly hides everything of a reader but Read: the Source that
// must be staged onto the store.
type forwardOnly struct{ io.Reader }

// A Source holding fewer bytes than its count is a short read, not a
// hang or a silent truncation: a forward-only stream fails the load, and
// a reader that tells its size is refused by Open, before any machine
// exists.
func TestSortSourceShortStream(t *testing.T) {
	for _, direct := range []bool{false, true} {
		cfg := testConfig(2)
		cfg.KeepOutput = false
		input := inputFor(cfg, workload.Uniform, 5000, 29)
		cfg.Source = func(rank int) (io.Reader, int64, error) {
			enc := elem.EncodeSlice(kvc, input[rank])
			r := bytes.NewReader(enc[:len(enc)/2])
			if direct {
				return r, int64(len(input[rank])), nil
			}
			return forwardOnly{r}, int64(len(input[rank])), nil
		}
		var started bool
		cfg.NewStore = func(int) (blockio.Store, error) { started = true; return blockio.NewMemStore(), nil }
		_, err := Sort[elem.KV16](kvc, cfg, nil)
		if err == nil {
			t.Fatalf("direct=%v: short source stream must fail the sort", direct)
		}
		if direct && (started || !strings.Contains(err.Error(), "rank 0: reader holds 40000 bytes, 5000 elements need 80000")) {
			t.Fatalf("a short sized reader must be refused by Open, naming the rank and both sizes (machine built: %v): %v", started, err)
		}
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
// from a Source, file-backed store) charges the load phase nothing when
// the generator is read in place, and exactly its staging — FillFrom's
// one chunk, whether or not the sort itself overlaps — when it can only
// be read forward; never the tile, which is three orders of magnitude
// larger.
func TestSortSourceLoadPeakIsBlockSized(t *testing.T) {
	const p = 2
	const nPer = 20000 // records per rank; tile = 2,000,000 bytes
	for _, direct := range []bool{true, false} {
		for _, overlap := range []bool{false, true} {
			rc := elem.Rec100Codec{}
			cfg := DefaultConfig(p, 1<<13, 10*100)
			cfg.Seed = 5
			cfg.Overlap = overlap
			cfg.NewStore = blockio.FileStoreFactory(t.TempDir(), cfg.BlockBytes)
			cfg.Source = func(rank int) (io.Reader, int64, error) {
				r := sortbench.NewReader(77, int64(rank)*nPer, nPer)
				if direct {
					return r, nPer, nil
				}
				return forwardOnly{r}, nPer, nil
			}
			cfg.Sink = func(rank int, b []byte) error { return nil }
			res, err := Sort[elem.Rec100](rc, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			bElem := int64(res.BlockElems)
			for rank, peak := range res.LoadPeakMemElems {
				switch {
				case direct && peak != 0:
					t.Errorf("overlap=%v rank %d: an input read in place charged the load %d elements, want 0", overlap, rank, peak)
				case !direct && peak != bElem:
					t.Errorf("overlap=%v rank %d: load phase held %d elements, want the one staging chunk (%d)", overlap, rank, peak, bElem)
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
}

// countingStore counts one rank's store calls.
type countingStore struct {
	blockio.Store
	reads, writes *atomic.Int64
}

func (s countingStore) ReadAt(id blockio.BlockID, dst []byte) error {
	s.reads.Add(1)
	return s.Store.ReadAt(id, dst)
}

func (s countingStore) WriteAt(id blockio.BlockID, src []byte) error {
	s.writes.Add(1)
	return s.Store.WriteAt(id, src)
}

// TestSortSourceReadsInputOnce pins "the input is read once": with a
// Source that can be read at an offset, neither sorter stages the input
// onto the store. Against a forward-only wrapper of the same bytes the
// load writes no block, the store's WriteAt and ReadAt calls each fall
// by exactly the input's block count per rank, the Source yields exactly
// count·elemSize bytes, and the output is identical.
func TestSortSourceReadsInputOnce(t *testing.T) {
	const perPE = 5200 // 81 full 64-element blocks and a short one
	for _, sorter := range []string{"canonical", "striped"} {
		for _, p := range []int{1, 4} {
			for _, store := range []string{"ram", "file"} {
				t.Run(fmt.Sprintf("%s_p%d_%s", sorter, p, store), func(t *testing.T) {
					input := inputFor(testConfig(p), workload.Uniform, perPE, 37)
					type outcome struct {
						out                 [][]byte
						reads, writes, load []int64
						inBytes, blockElems int64
					}
					run := func(direct bool) outcome {
						o := outcome{reads: make([]int64, p), writes: make([]int64, p), load: make([]int64, p)}
						reads, writes := make([]atomic.Int64, p), make([]atomic.Int64, p)
						cfg := testConfig(p)
						cfg.KeepOutput = false
						dir := t.TempDir()
						cfg.NewStore = func(rank int) (blockio.Store, error) {
							s := blockio.Store(blockio.NewMemStore())
							if store == "file" {
								var err error
								if s, err = blockio.FileStoreFactory(dir, cfg.BlockBytes)(rank); err != nil {
									return nil, err
								}
							}
							return countingStore{Store: s, reads: &reads[rank], writes: &writes[rank]}, nil
						}
						src, inBytes := tallySource(input)
						cfg.Source = func(rank int) (io.Reader, int64, error) {
							r, cnt, err := src(rank)
							if !direct {
								r = forwardOnly{r}
							}
							return r, cnt, err
						}
						var sink func(int, []byte) error
						sink, o.out = sinkCapture(p)
						cfg.Sink = sink
						var stats *job.Stats
						if sorter == "striped" {
							res, err := stripesort.Sort[elem.KV16](kvc, stripesort.Config{Common: cfg.Common}, nil)
							if err != nil {
								t.Fatal(err)
							}
							stats = &res.Stats
						} else {
							res, err := Sort[elem.KV16](kvc, cfg, nil)
							if err != nil {
								t.Fatal(err)
							}
							stats = &res.Stats
						}
						for r := range p {
							o.reads[r], o.writes[r] = reads[r].Load(), writes[r].Load()
							o.load[r] = stats.PerPE[r][PhaseLoad].BlocksWritten
						}
						o.inBytes, o.blockElems = inBytes.Load(), int64(stats.BlockElems)
						return o
					}
					direct, staged := run(true), run(false)
					blocks := (perPE + direct.blockElems - 1) / direct.blockElems
					if want := int64(p) * perPE * 16; direct.inBytes != want || staged.inBytes != want {
						t.Errorf("Source yielded %d bytes read in place and %d staged, want exactly %d", direct.inBytes, staged.inBytes, want)
					}
					for r := range p {
						if direct.load[r] != 0 || staged.load[r] != blocks {
							t.Errorf("rank %d: load wrote %d blocks read in place and %d staged, want 0 and %d", r, direct.load[r], staged.load[r], blocks)
						}
						if d := staged.writes[r] - direct.writes[r]; d != blocks {
							t.Errorf("rank %d: store writes fell by %d (%d → %d), want %d", r, d, staged.writes[r], direct.writes[r], blocks)
						}
						if d := staged.reads[r] - direct.reads[r]; d != blocks {
							t.Errorf("rank %d: store reads fell by %d (%d → %d), want %d", r, d, staged.reads[r], direct.reads[r], blocks)
						}
						if len(direct.out[r]) == 0 || !bytes.Equal(direct.out[r], staged.out[r]) {
							t.Errorf("rank %d: reading the input in place changed the output", r)
						}
					}
				})
			}
		}
	}
}
