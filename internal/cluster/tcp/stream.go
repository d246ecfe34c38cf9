package tcp

import (
	"fmt"
	"time"

	"demsort/internal/bufpool"
	"demsort/internal/cluster"
)

// writeExchange is the one place an all-to-all's frames are written: in
// 1-factor round order — every round a perfect matching, so each link
// carries one exchange per round in each direction and the machine's P²
// streams never funnel through one node — each non-self payload going
// back to the arena once it is on the wire (Transport.AllToAllv's
// ownership rule). It returns the payload bytes written and, for a
// failed write, an *ErrAborted naming the peer (the recorded abort when
// the machine is already failing); it neither panics nor touches the
// PE-owned clock, so the stream's sender goroutine can run it.
func (m *Machine) writeExchange(send [][]byte) (sent int64, err error) {
	for r := 0; r < oneFactorRounds(m.p); r++ {
		q := oneFactorPartner(m.rank, r, m.p)
		if q < 0 {
			continue // odd P: paired with the dummy this round
		}
		if m.abortFlag.Load() {
			return sent, m.aborted()
		}
		payload := send[q]
		if err := m.writeFrame(q, tagA2A, payload); err != nil {
			return sent, cluster.Abortedf(q, "tcp: rank %d all-to-all send to %d: %w", m.rank, q, err)
		}
		sent += int64(len(payload))
		send[q] = nil
		bufpool.Put(payload)
	}
	return sent, nil
}

// collectExchange is the one place an all-to-all's frames are read: one
// per 1-factor partner, on the PE goroutine (recvFrame charges blocked
// and network time). Eager reader-side buffering keeps the schedule
// deadlock-free when ranks progress at different rates. self is this
// rank's own message, delivered uncopied and off-network.
func (m *Machine) collectExchange(self []byte) [][]byte {
	recv := make([][]byte, m.p)
	recv[m.rank] = self
	for r := 0; r < oneFactorRounds(m.p); r++ {
		if q := oneFactorPartner(m.rank, r, m.p); q >= 0 {
			recv[q] = m.recvFrame(q, tagA2A)
		}
	}
	return recv
}

// AllToAllv implements cluster.Transport: writeExchange, then
// collectExchange, inline on the PE goroutine; the write duration counts
// as blocked time, as for any sendFrame.
func (m *Machine) AllToAllv(send [][]byte) [][]byte {
	if len(send) != m.p {
		m.failNow(fmt.Errorf("tcp: AllToAllv needs %d destination slots, got %d", m.p, len(send)))
	}
	self := send[m.rank]
	t0 := time.Now()
	sent, err := m.writeExchange(send)
	if err != nil {
		m.failNow(err) // a no-op fail when the machine is already aborting
	}
	st := m.clock.Cur()
	st.BlockedTime += time.Since(t0).Seconds()
	st.BytesSent += sent
	return m.collectExchange(self)
}

// a2aStream is the pipelined AllToAllv (cluster.A2AStream): the same
// writeExchange and collectExchange with the write behind a sender
// goroutine, which drains posted exchanges onto the wire while the PE
// goroutine encodes the next exchange or collects the previous one — the
// double-buffered all-to-all of §IV-E. Per-peer frame order is preserved
// (one FIFO sender, ordered TCP, no other collectives while the stream
// is open), so the collect side matches exchanges one to one.
//
// The sender hands each finished exchange's byte count back over
// written, which Collect receives from: a collected exchange is a
// written one, and its wire accounting reaches the PE-owned clock on the
// PE goroutine. On a write error the sender fails the machine via m.fail
// (never panic, which only the PE goroutine may do) and exits. Abort
// unwinds close m.done, which the sender and Collect select on, so Close
// always joins in bounded time.
type a2aStream struct {
	m      *Machine
	window int

	sendQ      chan [][]byte // posted, not yet written; cap = window
	written    chan int64    // wire bytes of each written exchange, uncollected; cap = window
	senderDone chan struct{} // closed when the sender goroutine exits

	selfQ  [][]byte // self payloads of the exchanges posted but not collected, FIFO
	closed bool     // Close has run (PE goroutine only)
}

// OpenA2AStream implements cluster.StreamingTransport.
func (m *Machine) OpenA2AStream(window int) cluster.A2AStream {
	window = max(window, 1)
	s := &a2aStream{
		m:          m,
		window:     window,
		sendQ:      make(chan [][]byte, window),
		written:    make(chan int64, window),
		senderDone: make(chan struct{}),
	}
	m.bg.Add(1)
	go s.sender()
	return s
}

// Post implements cluster.A2AStream. It never blocks: posted ≤ window is
// enforced here and a collected exchange has left the sender's queue.
func (s *a2aStream) Post(send [][]byte) {
	m := s.m
	if m.abortFlag.Load() {
		panic(tcpAbort{})
	}
	if len(send) != m.p {
		m.failNow(fmt.Errorf("tcp: A2AStream Post needs %d destination slots, got %d", m.p, len(send)))
	}
	if len(s.selfQ) >= s.window {
		m.failNow(fmt.Errorf("tcp: A2AStream window overflow: %d exchanges already in flight (window %d)", len(s.selfQ), s.window))
	}
	s.selfQ = append(s.selfQ, send[m.rank])
	if m.p > 1 {
		s.sendQ <- send
	}
}

// Collect implements cluster.A2AStream: it receives the oldest posted
// exchange's frames, then waits (as blocked time) until the sender has
// written this PE's own — usually long done — and charges their bytes.
// With one PE nothing was queued and there is nothing to wait for.
func (s *a2aStream) Collect() [][]byte {
	m := s.m
	if len(s.selfQ) == 0 {
		m.failNow(fmt.Errorf("tcp: A2AStream Collect without a posted exchange"))
	}
	self := s.selfQ[0]
	s.selfQ[0] = nil
	s.selfQ = s.selfQ[1:]
	recv := m.collectExchange(self)
	if m.p > 1 {
		t0 := time.Now()
		select {
		case sent := <-s.written:
			st := m.clock.Cur()
			st.BlockedTime += time.Since(t0).Seconds()
			st.BytesSent += sent
		case <-m.done:
			m.failNow(cluster.Abortedf(m.rank, "tcp: rank %d: machine stopped with an exchange unwritten", m.rank))
		}
	}
	return recv
}

// Close implements cluster.A2AStream: it stops the sender goroutine and
// joins it (bounded even mid-abort — the poisoned write deadlines and
// m.done unblock it), then releases any uncollected self payloads.
// Idempotent; safe in deferred unwind paths.
func (s *a2aStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	close(s.sendQ)
	<-s.senderDone
	for _, b := range s.selfQ {
		bufpool.Put(b)
	}
	s.selfQ = nil
}

// Closed implements cluster.A2AStream.
func (s *a2aStream) Closed() bool { return s.closed }

// sender writes posted exchanges in posting order and reports each one's
// byte count (written has room: at most window are uncollected). A failed
// write fails the machine — unless it was killed or closed, whose severed
// sockets are not the peer's fault — and the PE goroutine unwinds through
// its own blocked receive or Collect's wait.
func (s *a2aStream) sender() {
	m := s.m
	defer m.bg.Done()
	defer close(s.senderDone)
	for {
		select {
		case send, ok := <-s.sendQ:
			if !ok {
				return
			}
			sent, err := m.writeExchange(send)
			if err != nil {
				if !m.closed.Load() {
					m.fail(err) // a no-op when the machine is already aborting
				}
				return
			}
			s.written <- sent
		case <-m.done:
			return
		}
	}
}
