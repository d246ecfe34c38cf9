package cluster_test

import (
	"errors"
	"testing"
	"time"

	"demsort/internal/cluster"
)

// TestBadCollectiveArgumentsAbort: an unknown reduce op fails the run
// with *ErrAborted on both backends — within a deadline, since a panic
// inside a collective must never leave the machine blocked. The
// unknown op also goes straight to the backend, past Node's check,
// where it panics inside the collective.
func TestBadCollectiveArgumentsAbort(t *testing.T) {
	calls := map[string]func(n *cluster.Node){
		"AllReduceInt64/xor": func(n *cluster.Node) { n.AllReduceInt64(1, "xor") },
		"Transport/xor":      func(n *cluster.Node) { n.Transport().AllReduceInt64(1, "xor") },
	}
	for _, backend := range []string{"sim", "tcp"} {
		for name, call := range calls {
			t.Run(backend+"/"+name, func(t *testing.T) {
				errs := useMachines(t, backend, 2, func(m cluster.Machine) error {
					done := make(chan error, 1) // buffered: nobody receives once the deadline passed
					go func() {
						done <- m.Run(func(n *cluster.Node) error {
							call(n)
							return nil
						})
					}()
					select {
					case err := <-done:
						return err
					case <-time.After(5 * time.Second):
						return errors.New("the run did not abort within 5s")
					}
				})
				for rank, err := range errs {
					var ae *cluster.ErrAborted
					if !errors.As(err, &ae) {
						t.Fatalf("rank %d: got %v, want *ErrAborted", rank, err)
					}
				}
			})
		}
	}
}
