package stripesort

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"
	"time"

	"demsort/internal/blockio"
	"demsort/internal/cluster"
	"demsort/internal/elem"
	"demsort/internal/job"
	"demsort/internal/workload"
)

// TestStripedSinkStreamsCanonicalRanges pins the Sink contract: with
// G = ⌈N/B⌉ output blocks, rank i's stream is exactly elements
// [RankBounds(G,P)[i]·B, min(RankBounds(G,P)[i+1]·B, N)) of the sorted
// output, the last range cut short — on either store, when P does not
// divide G, when there are fewer blocks than PEs (some owners get
// nothing) and when the input is empty.
func TestStripedSinkStreamsCanonicalRanges(t *testing.T) {
	for _, tc := range []struct {
		name    string
		p, nPer int
		g       int64 // G, so that each case stays the edge it is named for
	}{
		{"ram", 4, 5200, 325}, {"file", 4, 5200, 325}, {"p1", 1, 5200, 82}, {"p3", 3, 5200, 244},
		{"fewer_blocks_than_PEs", 4, 30, 2}, {"empty", 4, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(tc.p)
			if tc.name == "file" {
				cfg.NewStore = blockio.FileStoreFactory(t.TempDir(), cfg.BlockBytes)
			}
			streamed := make([][]byte, tc.p)
			cfg.Sink = func(rank int, b []byte) error {
				streamed[rank] = append(streamed[rank], b...)
				return nil
			}
			input := workload.Generate(workload.Uniform, tc.p, tc.nPer, 77)
			res, err := Sort[elem.KV16](kvc, cfg, input)
			if err != nil {
				t.Fatal(err)
			}
			checkSorted(t, res, input)
			b := int64(res.BlockElems)
			if g := (res.N + b - 1) / b; g != tc.g {
				t.Fatalf("%d output blocks, want %d", g, tc.g)
			}
			sorted := elem.EncodeSlice(kvc, res.Output)
			bounds := job.RankBounds(tc.g, tc.p)
			for rank := range streamed {
				lo, hi := min(bounds[rank]*b, res.N), min(bounds[rank+1]*b, res.N)
				if !bytes.Equal(streamed[rank], sorted[lo*16:hi*16]) || res.OutputLens[rank] != hi-lo {
					t.Fatalf("rank %d streamed %d bytes (%d elements reported), want elements [%d, %d) of the output",
						rank, len(streamed[rank]), res.OutputLens[rank], lo, hi)
				}
			}
		})
	}
}

// TestStripedSourceMatchesSliceInput: the streaming input path must be
// byte-equivalent to the slice path for the striped algorithm too.
func TestStripedSourceMatchesSliceInput(t *testing.T) {
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			input := workload.Generate(workload.Uniform, p, 5100, 13)
			ref, err := Sort[elem.KV16](kvc, testConfig(p), input)
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig(p)
			cfg.Source = func(rank int) (io.Reader, int64, error) {
				return bytes.NewReader(elem.EncodeSlice(kvc, input[rank])), int64(len(input[rank])), nil
			}
			res, err := Sort[elem.KV16](kvc, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Output, ref.Output) {
				t.Fatal("source-loaded striped output differs from slice-loaded")
			}
		})
	}
}

// A Sink error aborts the whole fleet: rank 2's Sink fails on its third
// call, while the other ranks are inside the merge batches' collectives.
// Every rank returns, in bounded time, and the sort's error is the abort
// that rank 2's Sink error caused.
func TestStripedSinkErrorAborts(t *testing.T) {
	cfg := testConfig(4)
	cfg.KeepOutput = false
	sinkErr := errors.New("part file write failed")
	calls := 0 // rank 2's; calls for one rank are sequential
	cfg.Sink = func(rank int, b []byte) error {
		if rank != 2 {
			return nil
		}
		if calls++; calls == 3 {
			return sinkErr
		}
		return nil
	}
	input := workload.Generate(workload.Uniform, 4, 5200, 3)
	done := make(chan error, 1)
	go func() {
		_, err := Sort[elem.KV16](kvc, cfg, input)
		done <- err
	}()
	select {
	case err := <-done:
		var ae *cluster.ErrAborted
		if !errors.Is(err, sinkErr) || !errors.As(err, &ae) || ae.Rank != 2 {
			t.Fatalf("sink error must abort the striped sort, blamed on rank 2, got %v", err)
		}
		if calls != 3 {
			t.Fatalf("rank 2's sink was called %d times, want 3 (none after its error)", calls)
		}
	case <-time.After(time.Minute):
		t.Fatal("the fleet did not unwind within a minute of rank 2's sink error")
	}
}
