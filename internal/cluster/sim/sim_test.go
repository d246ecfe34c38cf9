package sim

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
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

func TestAllGather(t *testing.T) {
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

// TestUnsimulatedOpsAbort: Transport's Bcast, ExchangeAny, Send and
// Recv, which no sorter calls, each end the run with *ErrAborted naming
// the calling PE while the other PE waits in a Barrier.
func TestUnsimulatedOpsAbort(t *testing.T) {
	calls := map[string]func(tr cluster.Transport){
		"Bcast":       func(tr cluster.Transport) { tr.Bcast(0, []byte{1}) },
		"ExchangeAny": func(tr cluster.Transport) { tr.ExchangeAny(make([]any, 2), 8) },
		"Send":        func(tr cluster.Transport) { tr.Send(0, 7, []byte{1}) },
		"Recv":        func(tr cluster.Transport) { tr.Recv(0, 7) },
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			m, err := New(testConfig(2))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			done := make(chan error, 1)
			go func() {
				done <- m.Run(func(n *cluster.Node) error {
					if n.Rank == 1 {
						call(n.Transport())
					}
					n.Barrier()
					return nil
				})
			}()
			select {
			case err := <-done:
				var ae *cluster.ErrAborted
				if !errors.As(err, &ae) || ae.Rank != 1 || !strings.Contains(err.Error(), name) {
					t.Fatalf("got %v, want *ErrAborted naming rank 1 and %s", err, name)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("%s did not end the run", name)
			}
		})
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
