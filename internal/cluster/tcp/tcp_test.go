package tcp

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"demsort/internal/bufpool"
	"demsort/internal/cluster"
)

// freePorts reserves p distinct localhost ports (ReservePorts with
// test error handling).
func freePorts(t *testing.T, p int) []string {
	t.Helper()
	addrs, err := ReservePorts(p)
	if err != nil {
		t.Fatal(err)
	}
	return addrs
}

// runMachines hosts P tcp machines in this process (one goroutine
// each) — the full wire protocol over real localhost sockets — and
// runs fn on every PE.
func runMachines(t *testing.T, p int, fn func(*cluster.Node) error) {
	t.Helper()
	peers := freePorts(t, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			m, err := New(Config{
				Rank:           rank,
				Peers:          peers,
				BlockBytes:     1024,
				ConnectTimeout: 20 * time.Second,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			defer m.Close()
			errs[rank] = m.Run(fn)
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func TestBarrierCompletes(t *testing.T) {
	runMachines(t, 4, func(n *cluster.Node) error {
		for i := 0; i < 5; i++ {
			n.Barrier()
		}
		return nil
	})
}

func TestAllToAllvRoutesData(t *testing.T) {
	const p = 5
	runMachines(t, p, func(n *cluster.Node) error {
		send := make([][]byte, p)
		for j := 0; j < p; j++ {
			send[j] = []byte(fmt.Sprintf("from %d to %d", n.Rank, j))
		}
		recv := n.AllToAllv(send)
		for j := 0; j < p; j++ {
			want := fmt.Sprintf("from %d to %d", j, n.Rank)
			if string(recv[j]) != want {
				return fmt.Errorf("recv[%d] = %q, want %q", j, recv[j], want)
			}
		}
		return nil
	})
}

func TestAllToAllvSelfMessageFree(t *testing.T) {
	runMachines(t, 2, func(n *cluster.Node) error {
		send := make([][]byte, 2)
		send[n.Rank] = bytes.Repeat([]byte{1}, 1<<20) // only self traffic
		recv := n.AllToAllv(send)
		if &recv[n.Rank][0] != &send[n.Rank][0] {
			return errors.New("self message was copied")
		}
		_, stats := n.PhaseStats()
		if st := stats["init"]; st.BytesSent != 0 || st.BytesRecv != 0 {
			return fmt.Errorf("self message hit the network: %+v", st)
		}
		return nil
	})
}

func TestAllToAllvLargeAndSkewed(t *testing.T) {
	// Uneven, multi-frame payloads exercise framing and the pairwise
	// schedule under different per-rank progress.
	const p = 4
	runMachines(t, p, func(n *cluster.Node) error {
		send := make([][]byte, p)
		for j := 0; j < p; j++ {
			size := (n.Rank + 1) * (j + 1) * 70000
			send[j] = bytes.Repeat([]byte{byte(10*n.Rank + j)}, size)
		}
		recv := n.AllToAllv(send)
		for j := 0; j < p; j++ {
			wantLen := (j + 1) * (n.Rank + 1) * 70000
			if len(recv[j]) != wantLen {
				return fmt.Errorf("recv[%d] has %d bytes, want %d", j, len(recv[j]), wantLen)
			}
			if recv[j][0] != byte(10*j+n.Rank) || recv[j][wantLen-1] != byte(10*j+n.Rank) {
				return fmt.Errorf("recv[%d] corrupted", j)
			}
		}
		return nil
	})
}

func TestAllGatherAndBcast(t *testing.T) {
	const p = 3
	runMachines(t, p, func(n *cluster.Node) error {
		all := n.AllGather([]byte{byte(n.Rank * 10)})
		for j := 0; j < p; j++ {
			if len(all[j]) != 1 || all[j][0] != byte(j*10) {
				return fmt.Errorf("allgather[%d] = %v", j, all[j])
			}
		}
		got := n.Transport().Bcast(1, []byte{byte(n.Rank)})
		if got[0] != 1 {
			return fmt.Errorf("bcast got %d", got[0])
		}
		return nil
	})
}

func TestAllReduce(t *testing.T) {
	const p = 4
	runMachines(t, p, func(n *cluster.Node) error {
		v := int64(n.Rank + 1)
		if got := n.AllReduceInt64(v, "sum"); got != 10 {
			return fmt.Errorf("sum %d", got)
		}
		if got := n.AllReduceInt64(v, "max"); got != 4 {
			return fmt.Errorf("max %d", got)
		}
		if got := n.AllReduceInt64(v, "min"); got != 1 {
			return fmt.Errorf("min %d", got)
		}
		if got := n.AllReduceInt64(1<<uint(n.Rank), "or"); got != 15 {
			return fmt.Errorf("or %d", got)
		}
		return nil
	})
}

// TestCollectivesManyRanks sweeps the tree/1-factor schedules across
// machine sizes that stress them differently: odd P (dummy rounds in
// the 1-factorization), non-power-of-two P (clipped binomial
// subtrees), and a power of two.
func TestCollectivesManyRanks(t *testing.T) {
	for _, p := range []int{3, 5, 6, 8} {
		p := p
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			runMachines(t, p, func(n *cluster.Node) error {
				n.Barrier()
				all := n.AllGather([]byte{byte(n.Rank), byte(n.Rank * 3)})
				for j := 0; j < p; j++ {
					if len(all[j]) != 2 || all[j][0] != byte(j) || all[j][1] != byte(j*3) {
						return fmt.Errorf("allgather[%d] = %v", j, all[j])
					}
				}
				for root := 0; root < p; root++ {
					got := n.Transport().Bcast(root, []byte{byte(100 + n.Rank)})
					if len(got) != 1 || got[0] != byte(100+root) {
						return fmt.Errorf("bcast root %d got %v", root, got)
					}
				}
				if got, want := n.AllReduceInt64(int64(n.Rank+1), "sum"), int64(p*(p+1)/2); got != want {
					return fmt.Errorf("sum = %d, want %d", got, want)
				}
				if got := n.AllReduceInt64(int64(n.Rank), "max"); got != int64(p-1) {
					return fmt.Errorf("max = %d, want %d", got, p-1)
				}
				send := make([][]byte, p)
				for j := 0; j < p; j++ {
					send[j] = bytes.Repeat([]byte{byte(16*n.Rank + j)}, 3+j+n.Rank)
				}
				recv := n.AllToAllv(send)
				for j := 0; j < p; j++ {
					want := bytes.Repeat([]byte{byte(16*j + n.Rank)}, 3+n.Rank+j)
					if !bytes.Equal(recv[j], want) {
						return fmt.Errorf("alltoallv recv[%d] = %v, want %v", j, recv[j], want)
					}
				}
				n.Barrier()
				return nil
			})
		})
	}
}

// TestCollectiveResultsDoNotAliasArena pins the pooled-buffer
// contract: AllGather and Bcast results are retained by callers, so
// they must not alias arena buffers that later traffic will reuse.
// The test takes collective results, then churns the arena with
// all-to-all rounds (whose receive buffers are recycled), and checks
// the earlier results are still intact.
func TestCollectiveResultsDoNotAliasArena(t *testing.T) {
	const p = 4
	runMachines(t, p, func(n *cluster.Node) error {
		gathered := n.AllGather(bytes.Repeat([]byte{byte(n.Rank + 1)}, 256))
		bcasted := n.Transport().Bcast(2, bytes.Repeat([]byte{0xAB}, 512))
		for round := 0; round < 8; round++ {
			send := make([][]byte, p)
			for j := 0; j < p; j++ {
				send[j] = bytes.Repeat([]byte{0xFF}, 256+round)
			}
			cluster.RecycleRecv(n.AllToAllv(send))
		}
		for j := 0; j < p; j++ {
			for _, b := range gathered[j] {
				if b != byte(j+1) {
					return fmt.Errorf("allgather result for rank %d was clobbered", j)
				}
			}
		}
		for _, b := range bcasted {
			if b != 0xAB {
				return fmt.Errorf("bcast result was clobbered")
			}
		}
		return nil
	})
}

func TestSendRecvOrdering(t *testing.T) {
	runMachines(t, 2, func(n *cluster.Node) error {
		if n.Rank == 0 {
			for i := 0; i < 100; i++ {
				n.Send(1, 7, []byte{byte(i)})
			}
			n.Barrier()
			return nil
		}
		for i := 0; i < 100; i++ {
			got := n.Recv(0, 7)
			if got[0] != byte(i) {
				return fmt.Errorf("message %d out of order: %d", i, got[0])
			}
		}
		n.Barrier()
		return nil
	})
}

func TestExchangeAnyGob(t *testing.T) {
	const p = 4
	runMachines(t, p, func(n *cluster.Node) error {
		items := make([]any, p)
		for j := 0; j < p; j++ {
			items[j] = []int64{int64(n.Rank), int64(j)}
		}
		got := n.Transport().ExchangeAny(items, 16)
		for j := 0; j < p; j++ {
			vs, ok := got[j].([]int64)
			if !ok || len(vs) != 2 || vs[0] != int64(j) || vs[1] != int64(n.Rank) {
				return fmt.Errorf("got[%d] = %v", j, got[j])
			}
		}
		return nil
	})
}

func TestWallClockPhaseStats(t *testing.T) {
	runMachines(t, 2, func(n *cluster.Node) error {
		n.SetPhase("spin")
		time.Sleep(30 * time.Millisecond)
		n.AddCPU(1e9) // modelled charge: must NOT leak into wall time
		n.Barrier()
		n.SetPhase("done")
		_, stats := n.PhaseStats()
		w := stats["spin"].Wall
		if w < 0.02 || w > 10 {
			return fmt.Errorf("spin wall %.3fs, want real wall-clock around 0.03s", w)
		}
		return nil
	})
}

func TestPeerLossUnblocksRun(t *testing.T) {
	// Rank 1 exits without participating in the barrier and closes its
	// machine; rank 0, blocked in Barrier, must unwind with an error
	// instead of hanging.
	peers := freePorts(t, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			m, err := New(Config{Rank: rank, Peers: peers, BlockBytes: 1024, ConnectTimeout: 20 * time.Second})
			if err != nil {
				errs[rank] = err
				return
			}
			if rank == 1 {
				m.Close() // abandon the machine
				return
			}
			defer m.Close()
			errs[rank] = m.Run(func(n *cluster.Node) error {
				n.Barrier()
				return nil
			})
		}(rank)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("rank 0 hung in Barrier after peer loss")
	}
	if errs[0] == nil {
		t.Fatal("rank 0 should report the lost peer")
	}
}

func TestTagMismatchFailsMachine(t *testing.T) {
	peers := freePorts(t, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			m, err := New(Config{Rank: rank, Peers: peers, BlockBytes: 1024, ConnectTimeout: 20 * time.Second})
			if err != nil {
				errs[rank] = err
				return
			}
			defer m.Close()
			errs[rank] = m.Run(func(n *cluster.Node) error {
				if n.Rank == 0 {
					n.Send(1, 7, []byte{1})
				} else {
					n.Recv(0, 8) // wrong tag
				}
				return nil
			})
		}(rank)
	}
	wg.Wait()
	if errs[1] == nil {
		t.Fatal("tag mismatch must fail the receiving machine")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Rank: 0, Peers: nil, BlockBytes: 1024}); err == nil {
		t.Fatal("empty peer list must be rejected")
	}
	if _, err := New(Config{Rank: 2, Peers: []string{"a", "b"}, BlockBytes: 1024}); err == nil {
		t.Fatal("out-of-range rank must be rejected")
	}
	if _, err := New(Config{Rank: 0, Peers: []string{"127.0.0.1:0"}, BlockBytes: 0}); err == nil {
		t.Fatal("zero block size must be rejected")
	}
}

func TestSingleRankMachine(t *testing.T) {
	// P=1 short-circuits every collective; AllReduce in particular must
	// return v, not reduce v with itself.
	runMachines(t, 1, func(n *cluster.Node) error {
		if got := n.AllReduceInt64(500, "sum"); got != 500 {
			return fmt.Errorf("P=1 sum = %d, want 500", got)
		}
		if got := n.AllReduceInt64(7, "max"); got != 7 {
			return fmt.Errorf("P=1 max = %d, want 7", got)
		}
		n.Barrier()
		all := n.AllGather([]byte{9})
		if len(all) != 1 || all[0][0] != 9 {
			return fmt.Errorf("P=1 allgather = %v", all)
		}
		recv := n.AllToAllv([][]byte{{1, 2}})
		if len(recv) != 1 || len(recv[0]) != 2 {
			return fmt.Errorf("P=1 alltoallv = %v", recv)
		}
		return nil
	})
}

// TestCollectMeansWritten pins the stream contract the send accounting
// rests on: when Collect returns exchange s, every payload this PE
// posted for s is on the wire and charged — although the peer's frames
// were in the mailbox before the Post (so there was nothing of the
// peer's to wait for) and the peer's program collects late (so nothing
// of its progress can be what Collect waited on).
func TestCollectMeansWritten(t *testing.T) {
	const big = 4 << 20 // far beyond a socket buffer: the write takes a while
	runMachines(t, 2, func(n *cluster.Node) error {
		st := n.OpenA2AStream(2)
		defer st.Close()
		if n.Rank == 0 {
			time.Sleep(50 * time.Millisecond)
		}
		for s := 0; s < 2; s++ {
			send := make([][]byte, 2)
			send[1-n.Rank] = []byte{byte(s)}
			if n.Rank == 0 {
				send[1] = bufpool.Get(big)
			}
			st.Post(send)
		}
		if n.Rank == 1 {
			time.Sleep(200 * time.Millisecond)
		}
		for s := 1; s <= 2; s++ {
			cluster.RecycleRecv(st.Collect())
			_, stats := n.PhaseStats()
			if got := stats["init"].BytesSent; n.Rank == 0 && got != int64(s*big) {
				return fmt.Errorf("after Collect %d: %d bytes written, want the %d posted", s-1, got, s*big)
			}
		}
		return nil
	})
}
