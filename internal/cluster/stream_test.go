package cluster_test

import (
	"fmt"
	"math/bits"
	"reflect"
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
	errs := make([]error, p)
	if backend == "sim" {
		m, err := sim.New(sim.Config{P: p, BlockBytes: 1024, MemElems: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		err = m.Run(fn)
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
			errs[rank] = m.Run(fn)
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
		"Bcast":          func(n *cluster.Node) { n.Bcast(0, []byte{1}) },
		"AllReduceInt64": func(n *cluster.Node) { n.AllReduceInt64(1, "sum") },
		"ExchangeAny":    func(n *cluster.Node) { n.ExchangeAny(make([]any, n.P), 8) },
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
// core.exchange and the striped collect share: exchanges are built in
// order at most window ahead of the one being consumed, the data
// arrives, the send charge of exchange s is held until exchange s is
// collected (or Close), and the stream is closed on return.
func TestA2ARoundsWindowAndCharges(t *testing.T) {
	const rounds, charge = 5, 10
	for _, backend := range []string{"sim", "tcp"} {
		for _, tc := range []struct {
			p, window int
			wantLog   string  // rank 0's build/consume order
			wantHeld  []int64 // budget held inside consume(s)
		}{
			{p: 2, window: 2, wantLog: "b0 b1 c0 b2 c1 b3 c2 b4 c3 c4", wantHeld: []int64{10, 10, 10, 10, 0}},
			{p: 2, window: 1, wantLog: "b0 c0 b1 c1 b2 c2 b3 c3 b4 c4", wantHeld: []int64{0, 0, 0, 0, 0}},
			// One PE has nothing to pipeline: the window collapses to 1.
			{p: 1, window: 2, wantLog: "b0 c0 b1 c1 b2 c2 b3 c3 b4 c4", wantHeld: []int64{0, 0, 0, 0, 0}},
		} {
			t.Run(fmt.Sprintf("%s/p%d/w%d", backend, tc.p, tc.window), func(t *testing.T) {
				var log []string
				var held []int64
				errs := runOn(t, backend, tc.p, func(n *cluster.Node) error {
					n.SetA2AWindow(tc.window)
					err := n.A2ARounds(rounds,
						func(s int) ([][]byte, int64) {
							if n.Rank == 0 {
								log = append(log, fmt.Sprintf("b%d", s))
							}
							send := make([][]byte, n.P)
							for q := range send {
								send[q] = []byte{byte(n.Rank), byte(s)}
							}
							return send, charge
						},
						func(s int, recv [][]byte) error {
							if n.Rank == 0 {
								log = append(log, fmt.Sprintf("c%d", s))
								held = append(held, n.Mem.Used())
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
					if n.Mem.Used() != 0 {
						return fmt.Errorf("A2ARounds left %d elements charged", n.Mem.Used())
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
				if !reflect.DeepEqual(held, tc.wantHeld) {
					t.Errorf("held charges %v, want %v", held, tc.wantHeld)
				}
			})
		}
	}
}

// TestA2ARoundsClosesOnError: a consume error returns with the stream
// closed and every charge released, so the unwinding PE can still run
// collectives.
func TestA2ARoundsClosesOnError(t *testing.T) {
	errs := runOn(t, "sim", 2, func(n *cluster.Node) error {
		err := n.A2ARounds(3,
			func(s int) ([][]byte, int64) { return make([][]byte, n.P), 5 },
			func(s int, recv [][]byte) error { return fmt.Errorf("sink full") })
		if err == nil || n.Mem.Used() != 0 {
			return fmt.Errorf("want the consume error and no charge held, got %v / %d", err, n.Mem.Used())
		}
		n.Barrier()
		return nil
	})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
}

// recordingTransport is a 3-PE machine seen from rank 0 whose only
// working call is OpenA2AStream: the stream it hands out records what the
// budget holds at every Post and Collect.
type recordingTransport struct {
	cluster.Transport
	mem  *membudget.Tracker
	held []int64 // Mem.Used() on entry to each Post ("p") and Collect ("c")
	ops  []string
	open bool
}

func (r *recordingTransport) Rank() int { return 0 }
func (r *recordingTransport) P() int    { return 3 }

func (r *recordingTransport) OpenA2AStream(window int) cluster.A2AStream {
	r.open = true
	return r
}

func (r *recordingTransport) record(op string) {
	r.ops = append(r.ops, op)
	r.held = append(r.held, r.mem.Used())
}

func (r *recordingTransport) Post(send [][]byte) { r.record("p") }
func (r *recordingTransport) Collect() [][]byte  { r.record("c"); return make([][]byte, 3) }
func (r *recordingTransport) Close()             { r.open = false }
func (r *recordingTransport) Closed() bool       { return !r.open }

// TestA2ARoundsHoldsAtMostWindowCharges pins the send accounting against
// the stream contract (a collected exchange is a written one): exchange
// s charges 1<<s, so the budget's use spells out which exchanges are
// held — never more than window of them, exchange s from its build to
// its Collect and not a step longer.
func TestA2ARoundsHoldsAtMostWindowCharges(t *testing.T) {
	const rounds = 7
	for _, window := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("w%d", window), func(t *testing.T) {
			mem := membudget.New(1 << rounds)
			tr := &recordingTransport{mem: mem}
			n := cluster.NewNode(tr, vtime.NewClock(), nil, mem)
			n.SetA2AWindow(window)
			posted, collected := 0, 0
			// want is the charges of the exchanges built but not collected.
			want := func() int64 { return int64(1)<<posted - int64(1)<<collected }
			err := n.A2ARounds(rounds,
				func(s int) ([][]byte, int64) {
					if got := mem.Used(); got != want() {
						t.Errorf("building %d: %b charged, want %b", s, got, want())
					}
					posted++
					return make([][]byte, 3), 1 << s
				},
				func(s int, recv [][]byte) error {
					collected++
					if got := mem.Used(); got != want() {
						t.Errorf("consuming %d: %b charged, want %b (exchange %d is written: its charge must be gone)", s, got, want(), s)
					}
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if mem.Used() != 0 || tr.open {
				t.Fatalf("after A2ARounds: %d charged, stream open = %v", mem.Used(), tr.open)
			}
			for i, held := range tr.held {
				if k := bits.OnesCount64(uint64(held)); k > window {
					t.Errorf("%s #%d: %d exchanges' charges held (%b), window %d", tr.ops[i], i, k, held, window)
				}
			}
		})
	}
}
