package cluster_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"demsort/internal/cluster"
	"demsort/internal/cluster/sim"
	"demsort/internal/cluster/tcp"
	"demsort/internal/membudget"
	"demsort/internal/vtime"
)

// runOn runs fn on every PE of a p-rank machine of the given backend
// (sim: one in-process machine; tcp: p machines over localhost sockets,
// one goroutine each) and returns the per-rank Run errors.
func runOn(t *testing.T, backend string, p int, fn func(*cluster.Node) error) []error {
	t.Helper()
	return useMachines(t, backend, p, func(m cluster.Machine) error { return m.Run(fn) })
}

// useMachines builds runOn's machines and hands each to use, returning
// the per-rank errors.
func useMachines(t *testing.T, backend string, p int, use func(cluster.Machine) error) []error {
	t.Helper()
	errs := make([]error, p)
	if backend == "sim" {
		m, err := sim.New(sim.Config{P: p, BlockBytes: 1024, MemElems: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		err = use(m)
		for rank := range errs {
			errs[rank] = err
		}
		return errs
	}
	peers, err := tcp.ReservePorts(p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			m, err := tcp.New(tcp.Config{Rank: rank, Peers: peers, BlockBytes: 1024, MemElems: 1 << 20, ConnectTimeout: 20 * time.Second})
			if err != nil {
				errs[rank] = err
				return
			}
			defer m.Close()
			errs[rank] = use(m)
		}(rank)
	}
	wg.Wait()
	return errs
}

// TestOpenStreamFailsOtherCalls pins the stream contract as a runtime
// check: between OpenA2AStream and Close every other communication call
// on the Node — and a second OpenA2AStream — fails the run with a
// message naming both calls, on both backends; after Close the same
// calls work again.
func TestOpenStreamFailsOtherCalls(t *testing.T) {
	calls := map[string]func(n *cluster.Node){
		"Barrier":        func(n *cluster.Node) { n.Barrier() },
		"AllToAllv":      func(n *cluster.Node) { cluster.RecycleRecv(n.AllToAllv(make([][]byte, n.P))) },
		"AllGather":      func(n *cluster.Node) { n.AllGather([]byte{1}) },
		"AllReduceInt64": func(n *cluster.Node) { n.AllReduceInt64(1, "sum") },
		"Send":           func(n *cluster.Node) { n.Send(1-n.Rank, 7, []byte{1}) },
		"Recv":           func(n *cluster.Node) { n.Recv(1-n.Rank, 7) },
		"OpenA2AStream":  func(n *cluster.Node) { n.OpenA2AStream(2).Close() },
	}
	for _, backend := range []string{"sim", "tcp"} {
		for name, call := range calls {
			t.Run(backend+"/"+name, func(t *testing.T) {
				errs := runOn(t, backend, 2, func(n *cluster.Node) error {
					st := n.OpenA2AStream(2)
					defer st.Close()
					call(n)
					return nil
				})
				for rank, err := range errs {
					if err == nil {
						t.Fatalf("rank %d: %s with a stream open did not fail the run", rank, name)
					}
					if msg := err.Error(); !strings.Contains(msg, name+" called") || !strings.Contains(msg, "OpenA2AStream") {
						t.Fatalf("rank %d: error must name %s and OpenA2AStream, got: %v", rank, name, err)
					}
				}
			})
		}
		t.Run(backend+"/after-close", func(t *testing.T) {
			errs := runOn(t, backend, 2, func(n *cluster.Node) error {
				st := n.OpenA2AStream(2)
				st.Post(make([][]byte, n.P))
				cluster.RecycleRecv(st.Collect())
				st.Close()
				n.Barrier()
				n.OpenA2AStream(1).Close()
				if got := n.AllReduceInt64(1, "sum"); got != 2 {
					return fmt.Errorf("allreduce after Close = %d, want 2", got)
				}
				return nil
			})
			for rank, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", rank, err)
				}
			}
		})
	}
}

// TestA2ARoundsWindowAndCharges pins the one windowed post/collect loop
// core.exchange runs: exchanges are built in order at most window ahead
// of the one being consumed, the data arrives, and the stream is closed
// on return.
func TestA2ARoundsWindowAndCharges(t *testing.T) {
	const rounds = 5
	for _, backend := range []string{"sim", "tcp"} {
		for _, tc := range []struct {
			p, window int
			wantLog   string // rank 0's build/consume order
		}{
			{p: 2, window: 2, wantLog: "b0 b1 c0 b2 c1 b3 c2 b4 c3 c4"},
			{p: 2, window: 1, wantLog: "b0 c0 b1 c1 b2 c2 b3 c3 b4 c4"},
			// One PE has nothing to pipeline: the window collapses to 1.
			{p: 1, window: 2, wantLog: "b0 c0 b1 c1 b2 c2 b3 c3 b4 c4"},
		} {
			t.Run(fmt.Sprintf("%s/p%d/w%d", backend, tc.p, tc.window), func(t *testing.T) {
				var log []string
				errs := runOn(t, backend, tc.p, func(n *cluster.Node) error {
					n.SetA2AWindow(tc.window)
					err := n.A2ARounds(rounds,
						func(s int) [][]byte {
							if n.Rank == 0 {
								log = append(log, fmt.Sprintf("b%d", s))
							}
							send := make([][]byte, n.P)
							for q := range send {
								send[q] = []byte{byte(n.Rank), byte(s)}
							}
							return send
						},
						func(s int, recv [][]byte) error {
							if n.Rank == 0 {
								log = append(log, fmt.Sprintf("c%d", s))
							}
							for q, b := range recv {
								if len(b) != 2 || b[0] != byte(q) || b[1] != byte(s) {
									return fmt.Errorf("round %d from %d: got %v", s, q, b)
								}
							}
							return nil
						})
					if err != nil {
						return err
					}
					n.Barrier() // legal again: the stream was closed
					return nil
				})
				for rank, err := range errs {
					if err != nil {
						t.Fatalf("rank %d: %v", rank, err)
					}
				}
				if got := strings.Join(log, " "); got != tc.wantLog {
					t.Errorf("call order %q, want %q", got, tc.wantLog)
				}
			})
		}
	}
}

// TestA2ARoundsClosesOnError: a consume error returns with the stream
// closed, so the unwinding PE can still run collectives.
func TestA2ARoundsClosesOnError(t *testing.T) {
	errs := runOn(t, "sim", 2, func(n *cluster.Node) error {
		err := n.A2ARounds(3,
			func(s int) [][]byte { return make([][]byte, n.P) },
			func(s int, recv [][]byte) error { return fmt.Errorf("sink full") })
		if err == nil {
			return fmt.Errorf("want the consume error, got none")
		}
		n.Barrier()
		return nil
	})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
}

// recordingTransport is a 3-PE machine seen from rank 0 whose only
// working call is OpenA2AStream: the stream it hands out records how
// many exchanges are posted and not yet collected at every Post and
// Collect.
type recordingTransport struct {
	cluster.Transport
	inFlight int
	held     []int // exchanges in flight after each Post ("p") and before each Collect ("c")
	ops      []string
	open     bool
}

func (r *recordingTransport) Rank() int { return 0 }
func (r *recordingTransport) P() int    { return 3 }

func (r *recordingTransport) OpenA2AStream(window int) cluster.A2AStream {
	r.open = true
	return r
}

func (r *recordingTransport) record(op string) {
	r.ops = append(r.ops, op)
	r.held = append(r.held, r.inFlight)
}

func (r *recordingTransport) Post(send [][]byte) { r.inFlight++; r.record("p") }
func (r *recordingTransport) Collect() [][]byte {
	r.record("c")
	r.inFlight--
	return make([][]byte, 3)
}
func (r *recordingTransport) Close()       { r.open = false }
func (r *recordingTransport) Closed() bool { return !r.open }

// TestA2ARoundsHoldsAtMostWindowCharges pins the window against the
// stream contract: exchange s is built only once exchange s−window is
// collected, so never more than window exchanges are in flight — and,
// with rounds to spare, exactly window once the pipeline is full.
func TestA2ARoundsHoldsAtMostWindowCharges(t *testing.T) {
	const rounds = 7
	for _, window := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("w%d", window), func(t *testing.T) {
			tr := &recordingTransport{}
			n := cluster.NewNode(tr, vtime.NewClock(), nil, membudget.New(0))
			n.SetA2AWindow(window)
			posted, collected := 0, 0
			err := n.A2ARounds(rounds,
				func(s int) [][]byte {
					if s != posted || posted-collected >= window {
						t.Errorf("building %d with %d built and %d collected, window %d", s, posted, collected, window)
					}
					posted++
					return make([][]byte, 3)
				},
				func(s int, recv [][]byte) error {
					collected++
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if posted != rounds || collected != rounds || tr.open {
				t.Fatalf("after A2ARounds: %d built, %d collected, stream open = %v", posted, collected, tr.open)
			}
			if peak := slices.Max(tr.held); peak != window {
				t.Errorf("at most %d exchanges in flight (%s: %v), window %d", peak, strings.Join(tr.ops, ""), tr.held, window)
			}
		})
	}
}
