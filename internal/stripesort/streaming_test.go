package stripesort

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"

	"demsort/internal/blockio"
	"demsort/internal/cluster"
	"demsort/internal/elem"
	"demsort/internal/job"
	"demsort/internal/workload"
)

// TestStripedSinkStreamsCanonicalRanges pins the Sink contract: rank
// i's stream is a contiguous, in-order share of the sorted output, and
// the streams concatenate in rank order to exactly Result.Output.
func TestStripedSinkStreamsCanonicalRanges(t *testing.T) {
	for _, store := range []string{"ram", "file"} {
		t.Run(store, func(t *testing.T) {
			cfg := testConfig(4)
			if store == "file" {
				cfg.NewStore = blockio.FileStoreFactory(t.TempDir(), cfg.BlockBytes)
			}
			streamed := make([][]byte, cfg.P)
			cfg.Sink = func(rank int, b []byte) error {
				streamed[rank] = append(streamed[rank], b...)
				return nil
			}
			input := workload.Generate(workload.Uniform, cfg.P, 5200, 77)
			res, err := Sort[elem.KV16](kvc, cfg, input)
			if err != nil {
				t.Fatal(err)
			}
			checkSorted(t, res, input)
			var all []byte
			for rank := 0; rank < cfg.P; rank++ {
				if len(streamed[rank]) == 0 {
					t.Fatalf("rank %d received no output stream", rank)
				}
				part := elem.DecodeSlice(kvc, streamed[rank], len(streamed[rank])/16)
				if !elem.IsSorted[elem.KV16](kvc, part) {
					t.Fatalf("rank %d: sink stream not sorted", rank)
				}
				all = append(all, streamed[rank]...)
			}
			want := elem.EncodeSlice(kvc, res.Output)
			if !bytes.Equal(all, want) {
				t.Fatalf("concatenated sink streams (%d bytes) differ from Output (%d bytes)", len(all), len(want))
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

// A Sink error during striped collection must abort the sort.
func TestStripedSinkErrorAborts(t *testing.T) {
	cfg := testConfig(2)
	cfg.KeepOutput = false
	sinkErr := errors.New("part file write failed")
	cfg.Sink = func(rank int, b []byte) error { return sinkErr }
	input := workload.Generate(workload.Uniform, 2, 5000, 3)
	_, err := Sort[elem.KV16](kvc, cfg, input)
	if err == nil || !errors.Is(err, sinkErr) {
		t.Fatalf("sink error must abort the striped sort, got %v", err)
	}
}

// TestCollectStaysWithinBudget pins the collect's memory accounting:
// the send staging of exchange s stays charged until it is collected,
// hence written (Node.A2ARounds), the collect's peak stays within the
// budget its window size is derived from, nothing stays charged
// afterwards, and every rank's sink sees its block range once, in order.
func TestCollectStaysWithinBudget(t *testing.T) {
	const bElem, totalBlocks = 64, 96
	for _, p := range []int{1, 2, 4} {
		for _, overlap := range []bool{true, false} {
			t.Run(fmt.Sprintf("p%d_overlap=%v", p, overlap), func(t *testing.T) {
				cfg := DefaultConfig(p, 32*bElem, bElem*16) // window limited by m/4: 8 blocks
				cfg.Overlap = overlap
				j, err := job.Open(kvc, &cfg.Common, make([][]elem.KV16, p), job.Striped, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := j.Start(); err != nil {
					t.Fatal(err)
				}
				defer j.Close()
				got := make([][]uint64, p) // per rank: the block indices sunk, in order
				sink := func(rank int, b []byte) error {
					blk := elem.DecodeSlice(kvc, b, len(b)/16)
					got[rank] = append(got[rank], blk[0].Key)
					return nil
				}
				err = j.Run(func(n *cluster.Node) error {
					n.SetPhase(job.PhaseCollect)
					// The striped layout: output block g lives on PE g mod P.
					var blocks []stripedBlock
					data := make([]elem.KV16, bElem)
					for g := n.Rank; g < totalBlocks; g += n.P {
						for i := range data {
							data[i].Key = uint64(g)
						}
						id := n.Vol.Alloc()
						n.Vol.WriteAsync(id, elem.EncodeSlice(kvc, data))
						blocks = append(blocks, stripedBlock{idx: int64(g), id: id, len: bElem})
					}
					n.Vol.Drain()
					n.Barrier()
					outN, err := collectOutput(kvc, n, &j.Plan, blocks, sink)
					if err != nil {
						return err
					}
					if want := int64(totalBlocks / p * bElem); outN != want {
						return fmt.Errorf("rank %d sunk %d elements, want %d", n.Rank, outN, want)
					}
					if peak := n.Mem.Peak(); peak == 0 || peak > cfg.MemElems {
						return fmt.Errorf("rank %d: collect peak %d elements, budget %d", n.Rank, peak, cfg.MemElems)
					}
					if used := n.Mem.Used(); used != 0 {
						return fmt.Errorf("rank %d: %d elements still charged after the collect", n.Rank, used)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				next := uint64(0)
				for rank := range got {
					for _, g := range got[rank] {
						if g != next {
							t.Fatalf("rank %d sunk block %d, want %d", rank, g, next)
						}
						next++
					}
				}
				if next != totalBlocks {
					t.Fatalf("%d of %d blocks sunk", next, totalBlocks)
				}
			})
		}
	}
}

// TestCollectFeedsEveryOwnerEveryRound pins the all-owners collect: 103
// blocks on 4 PEs give the owners ranges of 25 or 26 blocks; with a
// window of w = 8 blocks that is ⌈26/8⌉ = 4 rounds — not the ⌈103/8⌉ = 13
// of one window per round — and every owner sinks w blocks of its range
// in each of the first three.
func TestCollectFeedsEveryOwnerEveryRound(t *testing.T) {
	const p, bElem, totalBlocks, w = 4, 64, 103, 8
	cfg := DefaultConfig(p, 32*bElem, bElem*16) // w·B = m/4
	j, err := job.Open(kvc, &cfg.Common, make([][]elem.KV16, p), job.Striped, 0)
	if err != nil {
		t.Fatal(err)
	}
	if j.CollectWindow != w {
		t.Fatalf("collect window %d blocks, want %d", j.CollectWindow, w)
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rounds := make([]int, p)
	sunkIn := make([][]int, p) // per rank: the round each block was sunk in, in sink order
	err = j.Run(func(n *cluster.Node) error {
		n.SetPhase(job.PhaseCollect)
		var blocks []stripedBlock
		data := make([]elem.KV16, bElem)
		for g := n.Rank; g < totalBlocks; g += p {
			id := n.Vol.Alloc()
			n.Vol.WriteAsync(id, elem.EncodeSlice(kvc, data))
			blocks = append(blocks, stripedBlock{idx: int64(g), id: id, len: bElem})
		}
		n.Vol.Drain()
		n.Barrier()
		exchanges := 0
		n.SetOpHook(func(op string) {
			if op == "AllToAllv" {
				exchanges++
			}
		})
		n.SetA2AWindow(1) // round k is sunk right after exchange k
		sink := func(rank int, b []byte) error {
			sunkIn[rank] = append(sunkIn[rank], exchanges-1)
			return nil
		}
		_, err := collectOutput(kvc, n, &j.Plan, blocks, sink)
		rounds[n.Rank] = exchanges
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	bounds := job.RankBounds(totalBlocks, p)
	for rank := 0; rank < p; rank++ {
		if rounds[rank] != 4 {
			t.Errorf("rank %d: %d collect rounds, want 4", rank, rounds[rank])
		}
		owned := int(bounds[rank+1] - bounds[rank])
		if len(sunkIn[rank]) != owned {
			t.Fatalf("rank %d sunk %d blocks, owns %d", rank, len(sunkIn[rank]), owned)
		}
		for i, round := range sunkIn[rank] {
			if round != i/w {
				t.Fatalf("rank %d: block %d of its range sunk in round %d, want %d", rank, i, round, i/w)
			}
		}
	}
}
