package sim

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"demsort/internal/cluster"
	"demsort/internal/vtime"
)

func testConfig(p int) Config {
	m := vtime.Default()
	m.DiskJitter = 0
	return Config{P: p, BlockBytes: 1024, Model: m}
}

func TestBarrierSynchronisesClocks(t *testing.T) {
	m, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(n *cluster.Node) error {
		n.AddCPU(float64(n.Rank)) // skewed clocks
		n.Barrier()
		if m.eps[n.Rank].clock.Now() < 3 {
			return fmt.Errorf("clock %v below slowest PE", m.eps[n.Rank].clock.Now())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAllvRoutesData(t *testing.T) {
	const p = 5
	m, err := New(testConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(n *cluster.Node) error {
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
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAllvSelfMessageFree(t *testing.T) {
	m, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(n *cluster.Node) error {
		send := make([][]byte, 2)
		send[n.Rank] = bytes.Repeat([]byte{1}, 1<<20) // only self traffic
		n.AllToAllv(send)
		_, stats := n.PhaseStats()
		if st := stats["init"]; st.BytesSent != 0 || st.BytesRecv != 0 {
			return fmt.Errorf("self message hit the network: %+v", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGatherAndBcast(t *testing.T) {
	const p = 3
	m, err := New(testConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(n *cluster.Node) error {
		all := n.AllGather([]byte{byte(n.Rank * 10)})
		for j := 0; j < p; j++ {
			if all[j][0] != byte(j*10) {
				return fmt.Errorf("allgather[%d] = %d", j, all[j][0])
			}
		}
		got := n.Bcast(1, []byte{byte(n.Rank)})
		if got[0] != 1 {
			return fmt.Errorf("bcast got %d", got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduce(t *testing.T) {
	const p = 4
	m, err := New(testConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(n *cluster.Node) error {
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvOrdering(t *testing.T) {
	m, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(n *cluster.Node) error {
		if n.Rank == 0 {
			for i := 0; i < 10; i++ {
				n.Send(1, 7, []byte{byte(i)})
			}
			return nil
		}
		for i := 0; i < 10; i++ {
			got := n.Recv(0, 7)
			if got[0] != byte(i) {
				return fmt.Errorf("message %d out of order: %d", i, got[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeepP2PDoesNotDeadlock is the regression test for the fixed
// 1024-deep p2p inboxes: both PEs push far more messages than any
// fixed channel capacity before either receives. With bounded-channel
// inboxes both senders block with full inboxes on each side and the
// machine deadlocks; growable mailboxes (p2pDepth messages to start
// with) absorb the burst.
func TestDeepP2PDoesNotDeadlock(t *testing.T) {
	const burst = 8192 // far beyond the historical 1024-deep inboxes
	cfg := testConfig(2)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	done := make(chan error, 1)
	go func() {
		done <- m.Run(func(n *cluster.Node) error {
			peer := 1 - n.Rank
			for i := 0; i < burst; i++ {
				n.Send(peer, 3, []byte{byte(i)})
			}
			for i := 0; i < burst; i++ {
				got := n.Recv(peer, 3)
				if got[0] != byte(i) {
					return fmt.Errorf("message %d out of order: %d", i, got[0])
				}
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deadlocked: p2p inboxes blocked both senders")
	}
}

// TestRecvUnblocksOnPeerFailure: a PE blocked in Recv must unwind when
// another PE fails (previously it would block forever on its inbox
// channel and hang Run).
func TestRecvUnblocksOnPeerFailure(t *testing.T) {
	m, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sentinel := errors.New("boom")
	done := make(chan error, 1)
	go func() {
		done <- m.Run(func(n *cluster.Node) error {
			if n.Rank == 0 {
				return sentinel
			}
			n.Recv(0, 1) // never sent
			return nil
		})
	}()
	select {
	case err := <-done:
		if err == nil || !errors.Is(err, sentinel) {
			t.Fatalf("got %v, want wrapped sentinel", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Recv did not unblock on peer failure")
	}
}

func TestExchangeAnyRoutesItems(t *testing.T) {
	const p = 4
	m, err := New(testConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(n *cluster.Node) error {
		items := make([]any, p)
		for j := 0; j < p; j++ {
			items[j] = fmt.Sprintf("%d->%d", n.Rank, j)
		}
		got := n.ExchangeAny(items, 16)
		for j := 0; j < p; j++ {
			want := fmt.Sprintf("%d->%d", j, n.Rank)
			if got[j] != want {
				return fmt.Errorf("got[%d] = %v, want %v", j, got[j], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestErrorPropagatesWithoutDeadlock(t *testing.T) {
	m, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sentinel := errors.New("boom")
	err = m.Run(func(n *cluster.Node) error {
		if n.Rank == 2 {
			return sentinel // others are blocked in the barrier
		}
		n.Barrier()
		n.Barrier()
		return nil
	})
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want wrapped sentinel", err)
	}
}

func TestPanicPropagates(t *testing.T) {
	m, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(n *cluster.Node) error {
		if n.Rank == 1 {
			panic("kaboom")
		}
		n.Barrier()
		return nil
	})
	if err == nil {
		t.Fatal("expected error from panicked PE")
	}
}

func TestCollectiveMismatchDetected(t *testing.T) {
	m, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(n *cluster.Node) error {
		if n.Rank == 0 {
			n.Barrier()
		} else {
			n.AllGather(nil)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestDeterministicVirtualTime(t *testing.T) {
	run := func() []float64 {
		m, err := New(testConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		err = m.Run(func(n *cluster.Node) error {
			for round := 0; round < 5; round++ {
				send := make([][]byte, 8)
				for j := range send {
					send[j] = make([]byte, (n.Rank+1)*(j+1)*100)
				}
				n.AllToAllv(send)
				n.AddCPU(float64(n.Rank) * 0.001)
			}
			n.Barrier()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var times []float64
		for rank := range m.Nodes() {
			times = append(times, m.eps[rank].clock.Now())
		}
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("virtual time nondeterministic at PE %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCongestionSlowsBigMachines(t *testing.T) {
	// The same per-PE traffic should take longer (virtually) on a
	// larger machine because the fabric congests — the effect the
	// paper measured (1300 -> 400 MB/s).
	wall := func(p int) float64 {
		m, err := New(testConfig(p))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		var t0 float64
		err = m.Run(func(n *cluster.Node) error {
			send := make([][]byte, p)
			for j := range send {
				if j != n.Rank {
					send[j] = make([]byte, 1<<20/(p-1))
				}
			}
			n.AllToAllv(send)
			if n.Rank == 0 {
				t0 = m.eps[0].clock.Now()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return t0
	}
	if !(wall(32) > wall(2)) {
		t.Fatal("expected congestion to slow the larger machine")
	}
}

func TestVolumesIsolatedPerPE(t *testing.T) {
	m, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(n *cluster.Node) error {
		id := n.Vol.Alloc()
		payload := bytes.Repeat([]byte{byte(n.Rank + 1)}, 8)
		n.Vol.WriteAsync(id, payload)
		n.Barrier()
		got := make([]byte, 8)
		n.Vol.ReadWait(id, got)
		if got[0] != byte(n.Rank+1) {
			return fmt.Errorf("PE %d read %d — volumes are shared?", n.Rank, got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{P: 0, BlockBytes: 1}); err == nil {
		t.Fatal("P=0 must be rejected")
	}
	if _, err := New(Config{P: 1, BlockBytes: 0}); err == nil {
		t.Fatal("BlockBytes=0 must be rejected")
	}
}
