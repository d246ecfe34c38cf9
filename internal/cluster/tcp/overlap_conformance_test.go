package tcp_test

// Overlap conformance: every overlapped path of the pipeline — the
// double-buffered Source load, the A2AStream-pipelined all-to-all, the
// prefetching final merge feeding the Sink and the striped merge's
// asynchronous block I/O, its batches delivered straight to the owners'
// Sinks — must produce per-rank output streams byte-identical to the
// synchronous paths, on the sim backend and on real tcp machines alike.
// The synchronous sim run is the reference everything else diffs
// against.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"demsort/internal/blockio"
	"demsort/internal/cluster/tcp"
	"demsort/internal/core"
	"demsort/internal/elem"
	"demsort/internal/sortbench"
)

// sortSimStream runs the Source/Sink-fed canonical workload on the sim
// backend — through the overlapped loader, exchange and collect when
// overlap is set — and returns the per-rank Sink streams.
func sortSimStream(t *testing.T, p int, overlap bool) [][]byte {
	t.Helper()
	cfg := confConfig(p)
	cfg.KeepOutput = false
	cfg.Overlap = overlap
	cfg.Source = confSource
	out := make([][]byte, p)
	var mu sync.Mutex
	cfg.Sink = func(rank int, b []byte) error {
		mu.Lock()
		out[rank] = append(out[rank], b...)
		mu.Unlock()
		return nil
	}
	if _, err := core.Sort[elem.Rec100](elem.Rec100Codec{}, cfg, nil); err != nil {
		t.Fatal(err)
	}
	return out
}

// sortTCPStream is sortSimStream on p tcp machines.
func sortTCPStream(t *testing.T, p int, newStore func(rank int) (blockio.Store, error), overlap bool) [][]byte {
	t.Helper()
	peers := reservePorts(t, p)
	out := make([][]byte, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			m, err := tcp.New(tcp.Config{
				Rank:           rank,
				Peers:          peers,
				BlockBytes:     confBlock,
				MemElems:       confMem,
				NewStore:       newStore,
				ConnectTimeout: 20 * time.Second,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			defer m.Close()
			cfg := confConfig(p)
			cfg.KeepOutput = false
			cfg.Overlap = overlap
			cfg.Machine = m
			cfg.Source = confSource
			cfg.Sink = func(r int, b []byte) error {
				out[r] = append(out[r], b...)
				return nil
			}
			if _, err := core.Sort[elem.Rec100](elem.Rec100Codec{}, cfg, nil); err != nil {
				errs[rank] = err
			}
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("tcp rank %d: %v", rank, err)
		}
	}
	return out
}

// TestOverlapConformance pins overlapped ≡ synchronous for the
// canonical sort across P ∈ {2, 4, 8}, RAM and file stores, sim and
// tcp backends.
func TestOverlapConformance(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		for _, store := range []string{"ram", "file"} {
			t.Run(fmt.Sprintf("P%d_%s", p, store), func(t *testing.T) {
				var newStore func(rank int) (blockio.Store, error)
				if store == "file" {
					newStore = blockio.FileStoreFactory(t.TempDir(), confBlock)
				}
				ref := sortSimStream(t, p, false)
				runs := []struct {
					name string
					out  [][]byte
				}{
					{"sim overlapped", sortSimStream(t, p, true)},
					{"tcp synchronous", sortTCPStream(t, p, newStore, false)},
					{"tcp overlapped", sortTCPStream(t, p, newStore, true)},
				}
				for _, run := range runs {
					for rank := 0; rank < p; rank++ {
						if !bytes.Equal(ref[rank], run.out[rank]) {
							t.Fatalf("rank %d: %s stream differs from synchronous sim (%d vs %d bytes)",
								rank, run.name, len(run.out[rank]), len(ref[rank]))
						}
					}
				}
				var sums []sortbench.Summary
				for _, part := range decodeParts(ref) {
					sums = append(sums, sortbench.Validate(part))
				}
				all := sortbench.Merge(sums)
				if all.Unsorted != 0 || all.Records != int64(p)*confNPer {
					t.Fatalf("reference output invalid: %d inversions, %d records", all.Unsorted, all.Records)
				}
			})
		}
	}
}

// TestOverlapStripedConformance pins overlapped ≡ synchronous for the
// striped sort (its overlapped load and block I/O, the merge feeding the
// owners' Sinks) on both backends.
func TestOverlapStripedConformance(t *testing.T) {
	const p = 4
	for _, store := range []string{"ram", "file"} {
		t.Run(store, func(t *testing.T) {
			var newStore func(rank int) (blockio.Store, error)
			if store == "file" {
				newStore = blockio.FileStoreFactory(t.TempDir(), confBlock)
			}
			ref := sortStripedSim(t, p, false)
			runs := []struct {
				name string
				out  [][]byte
			}{
				{"sim overlapped", sortStripedSim(t, p, true)},
				{"tcp synchronous", sortStripedTCP(t, p, newStore, false)},
				{"tcp overlapped", sortStripedTCP(t, p, newStore, true)},
			}
			for _, run := range runs {
				for rank := 0; rank < p; rank++ {
					if !bytes.Equal(ref[rank], run.out[rank]) {
						t.Fatalf("rank %d: %s striped stream differs from synchronous sim (%d vs %d bytes)",
							rank, run.name, len(run.out[rank]), len(ref[rank]))
					}
				}
			}
		})
	}
}
