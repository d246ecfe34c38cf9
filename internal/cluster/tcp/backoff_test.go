package tcp

import (
	"testing"
	"time"
)

func TestBackoffDeterministicPerSeed(t *testing.T) {
	a, b := NewBackoff(10*time.Millisecond, time.Second, 42), NewBackoff(10*time.Millisecond, time.Second, 42)
	for i := 0; i < 20; i++ {
		if da, db := a.Next(), b.Next(); da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, da, db)
		}
	}
	c := NewBackoff(10*time.Millisecond, time.Second, 43)
	same := true
	for i := 0; i < 20; i++ {
		if a.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter streams")
	}
}

func TestBackoffGrowthAndCap(t *testing.T) {
	bo := NewBackoff(10*time.Millisecond, 100*time.Millisecond, 7)
	prevCeil := time.Duration(0)
	for i := 0; i < 12; i++ {
		d := bo.Next()
		// The ideal (pre-jitter) delay doubles until the cap; jitter
		// keeps the sample within (ideal/2, ideal].
		ideal := 10 * time.Millisecond << i
		if ideal > 100*time.Millisecond {
			ideal = 100 * time.Millisecond
		}
		if d > ideal {
			t.Fatalf("attempt %d: %v above the jittered ceiling %v", i, d, ideal)
		}
		if d < ideal/2 {
			t.Fatalf("attempt %d: %v below half the ceiling %v (jitter of at most half)", i, d, ideal)
		}
		if ideal > prevCeil {
			prevCeil = ideal
		}
	}
	if prevCeil != 100*time.Millisecond {
		t.Fatalf("never reached the cap: ceiling %v", prevCeil)
	}
}

func TestBackoffResetRewindsAttempts(t *testing.T) {
	bo := NewBackoff(10*time.Millisecond, 10*time.Second, 7)
	var d time.Duration
	for i := 0; i < 6; i++ {
		d = bo.Next()
	}
	if d < 160*time.Millisecond { // the sixth delay: 10ms·2^5, jittered by at most half
		t.Fatalf("sixth delay = %v, want the attempts to have grown it past 160ms", d)
	}
	bo.Reset()
	if d := bo.Next(); d > 10*time.Millisecond {
		t.Fatalf("first delay after Reset = %v, want back at the %v base", d, 10*time.Millisecond)
	}
}

func TestBackoffZeroValueDefaults(t *testing.T) {
	var bo Backoff
	for i := 0; i < 30; i++ {
		d := bo.Next()
		if d <= 0 || d > 2*time.Second {
			t.Fatalf("attempt %d: %v outside (0, 2s] with default Base/Max", i, d)
		}
	}
}
