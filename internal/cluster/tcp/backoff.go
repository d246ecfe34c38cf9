package tcp

import (
	"math/rand"
	"time"
)

// Backoff produces jittered exponential retry delays: attempt k waits
// Base·2^k, capped at Max, shortened by a uniform random fraction of up
// to half, so a fleet of processes retrying the same contended resource
// (a listen port, a peer that is still starting) does not stampede in
// lockstep. The sequence is deterministic for a given seed, which is
// what lets the fault-injection tests reproduce timing-sensitive
// schedules exactly.
type Backoff struct {
	// Base is the first delay (default 25ms).
	Base time.Duration
	// Max caps every delay (default 2s).
	Max time.Duration

	rng     *rand.Rand
	attempt int
}

const (
	backoffFactor = 2   // per-attempt growth
	backoffJitter = 0.5 // delays land in (d/2, d]
)

// NewBackoff returns a Backoff with the given base and cap and a
// deterministic jitter stream from seed.
func NewBackoff(base, max time.Duration, seed uint64) *Backoff {
	b := &Backoff{Base: base, Max: max}
	b.rng = rand.New(rand.NewSource(int64(seed)))
	return b
}

// Next returns the delay to sleep before the next retry and advances
// the attempt counter.
func (b *Backoff) Next() time.Duration {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	d := float64(base)
	for i := 0; i < b.attempt; i++ {
		d *= backoffFactor
		if d >= float64(max) {
			d = float64(max)
			break
		}
	}
	b.attempt++
	if b.rng != nil {
		d *= 1 - backoffJitter*b.rng.Float64()
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// Reset rewinds the attempt counter (the jitter stream keeps
// advancing, so a reset sequence still differs run to run within one
// seed — only cross-process determinism is preserved).
func (b *Backoff) Reset() { b.attempt = 0 }
