package tcp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"demsort/internal/cluster"
)

// launchFleet hosts P tcp machines in this process with per-rank
// config hooks and returns each rank's Run error. Machines are closed
// before it returns.
func launchFleet(t *testing.T, p int, tweak func(rank int, cfg *Config), fn func(m *Machine, n *cluster.Node) error) []error {
	t.Helper()
	peers := freePorts(t, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cfg := Config{Rank: rank, Peers: peers, BlockBytes: 1024, ConnectTimeout: 20 * time.Second}
			if tweak != nil {
				tweak(rank, &cfg)
			}
			m, err := New(cfg)
			if err != nil {
				errs[rank] = err
				return
			}
			defer m.Close()
			errs[rank] = m.Run(func(n *cluster.Node) error { return fn(m, n) })
		}(rank)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("fleet did not unwind in bounded time")
	}
	return errs
}

// TestAbortPropagatesPeerToPeer: one rank's program fails while the
// others are blocked in a collective; the abort frame must unwind
// every survivor with the typed error attributing the failing rank.
func TestAbortPropagatesPeerToPeer(t *testing.T) {
	injected := errors.New("injected program failure")
	errs := launchFleet(t, 4, nil, func(m *Machine, n *cluster.Node) error {
		if n.Rank == 2 {
			time.Sleep(50 * time.Millisecond) // let the others block in Barrier
			return injected
		}
		n.Barrier() // never completes: rank 2 gives up instead
		return nil
	})
	for rank, err := range errs {
		var ae *cluster.ErrAborted
		if !errors.As(err, &ae) {
			t.Fatalf("rank %d: %v (want *cluster.ErrAborted)", rank, err)
		}
		if ae.Rank != 2 {
			t.Fatalf("rank %d attributed the abort to rank %d, want 2 (%v)", rank, ae.Rank, err)
		}
	}
	// The failing rank keeps its own cause reachable through the chain.
	if !errors.Is(errs[2], injected) {
		t.Fatalf("rank 2 lost its cause: %v", errs[2])
	}
}

// TestWedgedPeerDetectedByHeartbeat: a peer that is alive at the
// socket level but makes no progress (and proves no liveness) must be
// detected by the heartbeat timeout, not waited on forever — the
// failure mode a plain EOF check can never catch.
func TestWedgedPeerDetectedByHeartbeat(t *testing.T) {
	start := time.Now()
	errs := launchFleet(t, 2,
		func(rank int, cfg *Config) {
			cfg.HeartbeatInterval = 20 * time.Millisecond
			cfg.HeartbeatTimeout = 300 * time.Millisecond
			cfg.OpTimeout = 30 * time.Second // keep the backstop out of this test
		},
		func(m *Machine, n *cluster.Node) error {
			if n.Rank == 1 {
				m.Wedge()    // stop proving liveness, like a livelocked process
				n.Recv(0, 9) // never sent: parks here until rank 0's abort frame lands
				return nil
			}
			n.Recv(1, 7) // never sent: only the heartbeat timeout can end this
			return nil
		})
	var ae *cluster.ErrAborted
	if !errors.As(errs[0], &ae) || ae.Rank != 1 {
		t.Fatalf("rank 0: %v (want *cluster.ErrAborted naming rank 1)", errs[0])
	}
	if !strings.Contains(errs[0].Error(), "silent") {
		t.Fatalf("rank 0's error should say the peer went silent: %v", errs[0])
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("wedge detection took %v; want bounded by the heartbeat timeout", elapsed)
	}
}

// TestOpTimeoutBoundsBlockingReceive: even a peer that heartbeats
// forever cannot hold a receive past the per-op backstop.
func TestOpTimeoutBoundsBlockingReceive(t *testing.T) {
	errs := launchFleet(t, 1,
		func(rank int, cfg *Config) { cfg.OpTimeout = 200 * time.Millisecond },
		func(m *Machine, n *cluster.Node) error {
			n.Recv(0, 7) // self-receive that was never sent
			return nil
		})
	var ae *cluster.ErrAborted
	if !errors.As(errs[0], &ae) {
		t.Fatalf("got %v, want *cluster.ErrAborted", errs[0])
	}
	if !strings.Contains(errs[0].Error(), "op deadline") {
		t.Fatalf("error should name the op deadline: %v", errs[0])
	}
}

// TestContextCancelAbortsFleet: job-level cancellation — a context wired
// to Machine.Abort, the one cancellation primitive — unwinds every rank
// with the JobRank attribution.
func TestContextCancelAbortsFleet(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	errs := launchFleet(t, 2, nil, func(m *Machine, n *cluster.Node) error {
		defer context.AfterFunc(ctx, func() { m.Abort(ctx.Err()) })()
		n.Recv(1-n.Rank, 7) // both block: only the cancellation ends this
		return nil
	})
	for rank, err := range errs {
		var ae *cluster.ErrAborted
		if !errors.As(err, &ae) {
			t.Fatalf("rank %d: %v (want *cluster.ErrAborted)", rank, err)
		}
		if ae.Rank != cluster.JobRank {
			t.Fatalf("rank %d attributed the cancellation to rank %d, want JobRank", rank, ae.Rank)
		}
	}
	if !errors.Is(errs[0], context.Canceled) && !errors.Is(errs[1], context.Canceled) {
		t.Fatalf("no rank kept context.Canceled reachable: %v / %v", errs[0], errs[1])
	}
}

// TestAbortMethodUnblocksRun: Machine.Abort from another goroutine
// (a supervisor) unwinds a blocked run.
func TestAbortMethodUnblocksRun(t *testing.T) {
	cause := errors.New("supervisor says stop")
	var once sync.Once
	errs := launchFleet(t, 2, nil, func(m *Machine, n *cluster.Node) error {
		if n.Rank == 0 {
			once.Do(func() {
				go func() {
					time.Sleep(100 * time.Millisecond)
					m.Abort(cause)
				}()
			})
		}
		n.Recv(1-n.Rank, 7)
		return nil
	})
	var ae *cluster.ErrAborted
	if !errors.As(errs[0], &ae) || ae.Rank != cluster.JobRank {
		t.Fatalf("rank 0: %v (want JobRank abort)", errs[0])
	}
	if !errors.Is(errs[0], cause) {
		t.Fatalf("rank 0 lost the supervisor's cause: %v", errs[0])
	}
	if errs[1] == nil {
		t.Fatal("rank 1 must unwind too (abort fan-out)")
	}
}

// TestMailboxPeakBytes: eager receive-side buffering is accounted —
// a receiver that lags its sender reports the queued high-water mark.
func TestMailboxPeakBytes(t *testing.T) {
	const msgs, size = 10, 1000
	runMachines(t, 2, func(n *cluster.Node) error {
		if n.Rank == 0 {
			for i := 0; i < msgs; i++ {
				n.Send(1, 7, make([]byte, size))
			}
			n.Barrier()
			return nil
		}
		// The reader enqueues eagerly whether or not this program is
		// receiving yet, so the high-water mark must climb to all ten
		// messages before a single Recv runs.
		deadline := time.Now().Add(10 * time.Second)
		for n.MailboxPeakBytes() < msgs*size {
			if time.Now().After(deadline) {
				return fmt.Errorf("mailbox peak stuck at %d bytes, want at least %d", n.MailboxPeakBytes(), msgs*size)
			}
			time.Sleep(time.Millisecond)
		}
		for i := 0; i < msgs; i++ {
			n.Recv(0, 7)
		}
		n.Barrier()
		return nil
	})
}

// TestDropPeerAbortsBothEnds: a severed link is a failure, promptly
// detected on both sides.
func TestDropPeerAbortsBothEnds(t *testing.T) {
	errs := launchFleet(t, 2, nil, func(m *Machine, n *cluster.Node) error {
		if n.Rank == 0 {
			time.Sleep(50 * time.Millisecond)
			m.DropPeer(1)
		}
		n.Recv(1-n.Rank, 7)
		return nil
	})
	for rank, err := range errs {
		var ae *cluster.ErrAborted
		if !errors.As(err, &ae) {
			t.Fatalf("rank %d: %v (want *cluster.ErrAborted)", rank, err)
		}
	}
}

// tcpGoroutines counts live goroutines currently executing this
// package's machine code (read loops, liveness, watchers).
func tcpGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "demsort/internal/cluster/tcp.(*Machine)") {
			count++
		}
	}
	return count
}

// TestCloseLeaksNoGoroutines pins the shutdown contract: after Close
// returns on every machine — clean run and aborted run alike — no
// reader, liveness or watcher goroutine survives.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	before := tcpGoroutines()
	// Clean run.
	runMachines(t, 3, func(n *cluster.Node) error {
		n.Barrier()
		n.AllGather([]byte{byte(n.Rank)})
		return nil
	})
	// Aborted run.
	launchFleet(t, 3, nil, func(m *Machine, n *cluster.Node) error {
		if n.Rank == 1 {
			return errors.New("boom")
		}
		n.Barrier()
		return nil
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		if now := tcpGoroutines(); now <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d tcp machine goroutines before, %d after", before, tcpGoroutines())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
