package tcp

import (
	"log"
	"sync"
	"time"

	"demsort/internal/cluster"
)

// mailboxHighWater is the number of bytes queued undelivered across this
// PE's mailboxes past which enqueue warn-logs (once).
const mailboxHighWater = 256 << 20

// mailbox is an unbounded FIFO of received frames (one per peer); the
// reader goroutine pushes, the PE program pops. closed marks a clean
// goodbye from the peer: frames already delivered stay poppable, but
// an empty wait will never be satisfied.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	q       []frame
	head    int
	peerBye bool
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) push(f frame) {
	b.mu.Lock()
	b.q = append(b.q, f)
	b.cond.Signal()
	b.mu.Unlock()
}

func (b *mailbox) close() {
	b.mu.Lock()
	b.peerBye = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *mailbox) isClosed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peerBye
}

func (b *mailbox) wakeAll() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// enqueue delivers a frame to a mailbox and charges the machine's
// receive-side accounting, warn-logging once past the high-water mark.
func (m *Machine) enqueue(pc *peerConn, f frame) {
	pc.box.push(f)
	total := m.boxBytes.Add(int64(len(f.payload)) + frameOverhead)
	for {
		peak := m.boxPeak.Load()
		if total <= peak || m.boxPeak.CompareAndSwap(peak, total) {
			break
		}
	}
	if total > mailboxHighWater && !m.hwWarned.Swap(true) {
		log.Printf("tcp: rank %d: %d bytes queued undelivered in receive mailboxes (high-water mark %d) — this PE is falling behind its peers", m.rank, total, mailboxHighWater)
	}
}

// popFrame blocks for the next frame from src, bounded by the failure
// plane: the liveness goroutine re-wakes the wait periodically so a
// silent peer (HeartbeatTimeout) or an overlong wait (OpTimeout) fails
// the machine instead of blocking forever.
func (m *Machine) popFrame(src int) (frame, bool) {
	pc := m.peers[src]
	b := pc.box
	start := time.Now()
	b.mu.Lock()
	for b.head == len(b.q) && !b.peerBye && !m.abortFlag.Load() && !m.closed.Load() {
		if err := m.stalled(src, pc, start); err != nil {
			b.mu.Unlock()
			m.failNow(err)
		}
		b.cond.Wait()
	}
	if b.head == len(b.q) {
		b.mu.Unlock()
		return frame{}, false
	}
	f := b.q[b.head]
	b.q[b.head] = frame{}
	b.head++
	if b.head == len(b.q) {
		b.q = b.q[:0]
		b.head = 0
	} else if b.head > 32 && b.head*2 >= len(b.q) {
		// Compact once the dead prefix dominates, so a queue that
		// never fully drains (a peer staying a round ahead for a whole
		// phase) keeps a bounded footprint instead of growing with the
		// total frame count.
		n := copy(b.q, b.q[b.head:])
		clear(b.q[n:])
		b.q = b.q[:n]
		b.head = 0
	}
	b.mu.Unlock()
	m.boxBytes.Add(-int64(len(f.payload)) - frameOverhead)
	return f, true
}

// stalled decides whether a blocked receive from src has outlived the
// failure plane's bounds. Self-messages only face OpTimeout (there is
// no liveness question about this process). A pause of this process is
// no evidence against a peer: its silence counts from the end of the
// last one (tick), and is not judged while the liveness tick is late.
func (m *Machine) stalled(src int, pc *peerConn, start time.Time) error {
	now := time.Now()
	if ot := m.cfg.OpTimeout; ot > 0 && now.Sub(start) > ot {
		return cluster.Abortedf(src, "tcp: rank %d: receive from rank %d exceeded the %v op deadline", m.rank, src, ot)
	}
	if src != m.rank && !m.late(now.UnixNano()) {
		if ht := m.cfg.HeartbeatTimeout; ht > 0 {
			heard := max(pc.lastHeard.Load(), m.resumed.Load())
			if silent := now.Sub(time.Unix(0, heard)); silent > ht {
				return cluster.Abortedf(src, "tcp: rank %d: rank %d silent for %v (heartbeat timeout %v) — presumed dead or wedged",
					m.rank, src, silent.Round(time.Millisecond), ht)
			}
		}
	}
	return nil
}

// MailboxPeakBytes implements cluster.MailboxStats: the high-water
// mark of bytes queued undelivered across this PE's mailboxes.
func (m *Machine) MailboxPeakBytes() int64 { return m.boxPeak.Load() }
