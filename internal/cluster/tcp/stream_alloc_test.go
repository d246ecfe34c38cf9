//go:build !race

// The recycling assertion cannot run under the race detector: it
// intentionally randomises sync.Pool reuse, so pooled buffers look
// like fresh allocations and the heap-growth bound turns meaningless.

package tcp_test

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"demsort/internal/bufpool"
	"demsort/internal/cluster"
	"demsort/internal/cluster/tcp"
)

// TestA2AStreamRecyclesSendBuffers: the pipelined all-to-all's steady
// state must circulate pooled buffers, not allocate per round — the
// sender goroutine recycles each posted payload after the socket
// write, the receiver recycles via RecycleRecv. With GC pinned, 64
// rounds of 1 MiB payloads on a 2-rank fleet must grow the heap far
// less than the ~128 MiB an unrecycled path would allocate.
func TestA2AStreamRecyclesSendBuffers(t *testing.T) {
	const (
		p       = 2
		window  = 2
		payload = 1 << 20
		warmup  = 8
		rounds  = 64
	)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	peers := reservePorts(t, p)
	errs := make([]error, p)
	var growth uint64
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			m, err := tcp.New(tcp.Config{
				Rank: rank, Peers: peers, BlockBytes: confBlock, MemElems: confMem,
				ConnectTimeout: 20 * time.Second,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			defer m.Close()
			errs[rank] = m.Run(func(n *cluster.Node) error {
				// Each batch of round trips runs on its own stream, closed
				// before the barrier that fences the measurement: no other
				// collective may run while a stream is open (a barrier frame
				// could overtake an all-to-all frame still queued in this
				// rank's sender), and Node fails the run on the attempt.
				roundTrips := func(k int) {
					st := n.OpenA2AStream(window)
					defer st.Close()
					for i := 0; i < k; i++ {
						send := make([][]byte, p)
						b := bufpool.Get(payload)
						b[0] = byte(n.Rank)
						send[1-n.Rank] = b
						st.Post(send)
						cluster.RecycleRecv(st.Collect())
					}
				}
				roundTrips(warmup)
				n.Barrier()
				var ms runtime.MemStats
				var before uint64
				if n.Rank == 0 {
					runtime.ReadMemStats(&ms)
					before = ms.TotalAlloc
				}
				roundTrips(rounds)
				n.Barrier()
				if n.Rank == 0 {
					runtime.ReadMemStats(&ms)
					growth = ms.TotalAlloc - before
				}
				return nil
			})
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	// Both ranks together move 2·rounds payloads; unrecycled that is
	// ≥ 128 MiB of fresh buffers. The recycled path may still allocate a
	// few: the sender lags Collect by up to one window (collecting
	// exchange s only proves the peer wrote), so a rank can Get before
	// its own writes have been Put back — window payloads per rank — and
	// sync.Pool parks one buffer per P in a private slot other Ps cannot
	// take. 2·window+2 payloads covers both and is still 20× below the
	// unrecycled volume.
	if limit := uint64((2*window + 2) * payload); growth > limit {
		t.Fatalf("steady-state stream rounds grew the heap by %d bytes (limit %d) — posted payloads are not being recycled", growth, limit)
	}
}
