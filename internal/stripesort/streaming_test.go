package stripesort

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"demsort/internal/blockio"
	"demsort/internal/cluster"
	"demsort/internal/cluster/sim"
	"demsort/internal/elem"
	"demsort/internal/job"
	"demsort/internal/workload"
)

// TestStripedSinkStreamsCanonicalRanges pins the Sink contract: with
// G = ⌈N/B⌉ output blocks, rank i's stream is exactly elements
// [RankBounds(G,P)[i]·B, min(RankBounds(G,P)[i+1]·B, N)) of the sorted
// output, the last range cut short — on either store, when P does not
// divide G, when there are fewer blocks than PEs (some owners get
// nothing) and when the input is empty. Every Sink call is one whole
// output block, in ascending order: only a rank's last call may be
// short, and only the last rank's.
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
			streamed, calls := make([][]byte, tc.p), make([][]int, tc.p)
			cfg.Sink = func(rank int, b []byte) error {
				streamed[rank] = append(streamed[rank], b...)
				calls[rank] = append(calls[rank], len(b))
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
				// Whole blocks in order, and as many calls as blocks: the
				// bytes above are the range, so the calls are its blocks.
				for i, l := range calls[rank] {
					if l != int(b)*16 && (i != len(calls[rank])-1 || hi != res.N) {
						t.Fatalf("rank %d: Sink call %d of %d carried %d bytes, not one %d-element block", rank, i, len(calls[rank]), l, b)
					}
				}
				if want := bounds[rank+1] - bounds[rank]; int64(len(calls[rank])) != want {
					t.Fatalf("rank %d: %d Sink calls for its %d blocks", rank, len(calls[rank]), want)
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

// TestStriperRejectsBadPieces: two PEs that disagree on a run's layout
// send each other bad pieces — PE 1 rotates the run's stripe and sends
// PE 0 a block PE 0 does not home, or takes the run for longer and sends
// PE 0 a piece past the end of PE 0's last block. Either fails the sort
// with an error naming the sender, instead of an index panic.
func TestStriperRejectsBadPieces(t *testing.T) {
	for _, tc := range []struct {
		name   string
		total  [2]int64 // the run's length as each PE takes it
		rotate [2]bool
		want   string
	}{
		{"misrouted", [2]int64{12, 12}, [2]bool{false, true}, "PE 0 received a piece of block 1 from PE 1, a block it does not home"},
		{"overlong", [2]int64{10, 12}, [2]bool{false, false}, "PE 0 received elements [0, 4) of block 2 from PE 1; the block is 2 elements long and holds the first 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sm, err := sim.New(sim.Config{P: 2, BlockBytes: 64, MemElems: 1 << 10})
			if err != nil {
				t.Fatal(err)
			}
			defer sm.Close()
			err = sm.Run(func(n *cluster.Node) error {
				cfg := testConfig(2)
				cfg.Randomize = tc.rotate[n.Rank]
				s := &pe[elem.KV16]{j: &job.Job[elem.KV16]{Plan: job.Plan{BElem: 4}}, c: kvc, n: n, cfg: &cfg}
				st := s.newStriper(1, tc.total[n.Rank], func(int64, []byte) error { return nil })
				// PE 0 contributes elements [0, 4) of the run, PE 1 [4, 12);
				// both arrive charged, as sortSampled hands them over.
				lo, elems := int64(4*n.Rank), make([]elem.KV16, 4+4*n.Rank)
				n.Mem.MustAcquire(int64(len(elems)))
				return st.stripe(lo, elems)
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
