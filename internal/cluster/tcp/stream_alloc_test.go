//go:build !race

// The recycling assertions cannot run under the race detector: it
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

const (
	allocPayload = 1 << 20
	allocWindow  = 2
)

// steadyStateGrowth runs roundTrips(n, k) — k all-to-all round trips of
// one allocPayload-sized pooled buffer to the other rank — on a 2-rank
// fleet, 8 times to warm the arena and then 64 times between two
// barriers, and returns how much rank 0's process heap grew over the 64
// with GC pinned. Both ranks together move 128 payloads; unrecycled that
// is ≥ 128 MiB of fresh buffers.
func steadyStateGrowth(t *testing.T, roundTrips func(n *cluster.Node, k int)) uint64 {
	const p, warmup, rounds = 2, 8, 64
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
				roundTrips(n, warmup)
				n.Barrier()
				var ms runtime.MemStats
				var before uint64
				if n.Rank == 0 {
					runtime.ReadMemStats(&ms)
					before = ms.TotalAlloc
				}
				roundTrips(n, rounds)
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
	return growth
}

// onePayload is a send vector carrying one pooled payload to the other
// rank of a 2-rank fleet.
func onePayload(n *cluster.Node) [][]byte {
	send := make([][]byte, n.P)
	b := bufpool.Get(allocPayload)
	b[0] = byte(n.Rank)
	send[1-n.Rank] = b
	return send
}

// allocLimit is what the recycled paths may still allocate: a written
// payload is back in the arena before the next one is taken (a collected
// exchange is a written one), but sync.Pool parks one buffer per P in a
// private slot other Ps cannot take, and the reader's receive buffers
// circulate through the same classes. window+2 payloads covers that and
// is 30× below the unrecycled volume.
const allocLimit = (allocWindow + 2) * allocPayload

// TestA2AStreamRecyclesSendBuffers: the pipelined all-to-all's steady
// state must circulate pooled buffers, not allocate per round — the
// sender goroutine recycles each posted payload after the socket
// write, the receiver recycles via RecycleRecv.
func TestA2AStreamRecyclesSendBuffers(t *testing.T) {
	growth := steadyStateGrowth(t, func(n *cluster.Node, k int) {
		// Each batch of round trips runs on its own stream, closed
		// before the barrier that fences the measurement: no other
		// collective may run while a stream is open, and Node fails the
		// run on the attempt.
		st := n.OpenA2AStream(allocWindow)
		defer st.Close()
		for i := 0; i < k; i++ {
			st.Post(onePayload(n))
			cluster.RecycleRecv(st.Collect())
		}
	})
	if growth > allocLimit {
		t.Fatalf("steady-state stream rounds grew the heap by %d bytes (limit %d) — posted payloads are not being recycled", growth, allocLimit)
	}
}

// TestAllToAllvRecyclesSendBuffers: the same bound on plain AllToAllv —
// the transport owns the send buffers (Transport.AllToAllv) and returns
// each written payload to the arena on this path too.
func TestAllToAllvRecyclesSendBuffers(t *testing.T) {
	growth := steadyStateGrowth(t, func(n *cluster.Node, k int) {
		for i := 0; i < k; i++ {
			cluster.RecycleRecv(n.AllToAllv(onePayload(n)))
		}
	})
	if growth > allocLimit {
		t.Fatalf("steady-state AllToAllv rounds grew the heap by %d bytes (limit %d) — written payloads are not being recycled", growth, allocLimit)
	}
}
