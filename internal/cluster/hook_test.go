package cluster_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"demsort/internal/cluster"
	"demsort/internal/cluster/faulty"
)

// TestOpHookSeesEveryTransportCall pins the trigger surface fault
// injection stands on: the op hook sees each Node communication call
// once, by its Transport method name, and each exchange A2ARounds posts
// as an AllToAllv — never OpenA2AStream — on both backends (Send and
// Recv on tcp only: the sim aborts a run that calls them). A faulty
// machine installs its check there for the run and clears it on return.
func TestOpHookSeesEveryTransportCall(t *testing.T) {
	const rounds = 3
	for _, backend := range []string{"sim", "tcp"} {
		t.Run(backend, func(t *testing.T) {
			want := append(append([]string{}, faulty.KnownOps...), "AllToAllv", "AllToAllv", "AllToAllv")
			if backend == "sim" {
				want = slices.DeleteFunc(want, func(op string) bool { return op == "Send" || op == "Recv" })
			}
			var mu sync.Mutex
			seen := make([][]string, 2)
			errs := runOn(t, backend, 2, func(n *cluster.Node) error {
				n.SetOpHook(func(op string) {
					mu.Lock()
					seen[n.Rank] = append(seen[n.Rank], op)
					mu.Unlock()
				})
				defer n.SetOpHook(nil)
				n.Barrier()
				cluster.RecycleRecv(n.AllToAllv(make([][]byte, n.P)))
				n.AllGather([]byte{1})
				n.AllReduceInt64(1, "sum")
				if backend == "tcp" {
					n.Send(1-n.Rank, 7, []byte{1})
					n.Recv(1-n.Rank, 7)
				}
				return n.A2ARounds(rounds, func(int) [][]byte { return make([][]byte, n.P) },
					func(_ int, recv [][]byte) error { cluster.RecycleRecv(recv); return nil })
			})
			for rank, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", rank, err)
				}
				if !reflect.DeepEqual(seen[rank], want) {
					t.Fatalf("rank %d: hook saw %s, want %s", rank, strings.Join(seen[rank], " "), strings.Join(want, " "))
				}
			}

			// A fault armed on every Barrier must not outlive the faulty run.
			errs = useMachines(t, backend, 2, func(m cluster.Machine) error {
				fm := faulty.Wrap(m, 1, faulty.Fault{Rank: 0, Action: faulty.Crash, Op: "Barrier"})
				if err := fm.Run(func(n *cluster.Node) error { n.AllReduceInt64(1, "sum"); return nil }); err != nil {
					return fmt.Errorf("faulty run without a Barrier: %w", err)
				}
				return m.Run(func(n *cluster.Node) error { n.Barrier(); return nil })
			})
			for rank, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: the faulty run left its hook installed: %v", rank, err)
				}
			}
		})
	}
}
