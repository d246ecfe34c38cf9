// Package membudget enforces the per-PE internal memory limit m that
// makes this an *external* sorting implementation: every phase acquires
// its element buffers from the node's tracker, and tests assert the
// peak never exceeds the configured budget. The budget also drives the
// derived parameters of the algorithm (run size, number k of all-to-all
// sub-operations, merge fan-in limits).
package membudget

import "fmt"

// Tracker counts live in-memory elements against a limit.
type Tracker struct {
	limit int64
	used  int64
	peak  int64
}

// New returns a tracker with the given element budget; limit <= 0
// means unlimited (still tracked).
func New(limit int64) *Tracker { return &Tracker{limit: limit} }

// Acquire reserves n elements of budget. It returns an error naming
// the overflow if the budget would be exceeded — callers treat that as
// a configuration bug, because phase parameters are derived to fit.
func (t *Tracker) Acquire(n int64) error {
	t.used += n
	if t.used > t.peak {
		t.peak = t.used
	}
	if t.limit > 0 && t.used > t.limit {
		return fmt.Errorf("membudget: %d elements in use, budget %d", t.used, t.limit)
	}
	return nil
}

// MustAcquire is Acquire that panics on overflow; used by internal
// phases whose sizing is derived from the budget itself.
func (t *Tracker) MustAcquire(n int64) {
	if err := t.Acquire(n); err != nil {
		panic(err)
	}
}

// Release returns n elements to the budget.
func (t *Tracker) Release(n int64) {
	t.used -= n
	if t.used < 0 {
		panic("membudget: released more than acquired")
	}
}

// Used returns the live reservation.
func (t *Tracker) Used() int64 { return t.used }

// Peak returns the high-water mark.
func (t *Tracker) Peak() int64 { return t.peak }

// Limit returns the configured budget (0 = unlimited).
func (t *Tracker) Limit() int64 { return t.limit }
