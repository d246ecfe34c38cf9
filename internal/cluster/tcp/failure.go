package tcp

import (
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"demsort/internal/cluster"
)

// tcpAbort is panicked through the PE program when the machine fails,
// so Run unwinds instead of hanging on a dead transport.
type tcpAbort struct{}

// fail records the first failure, fans the abort out to every peer and
// wakes every blocked wait. Callers attribute: a lost or silent peer
// fails with that peer's rank, a local bug with m.rank, a received
// abort frame with the origin's attribution (abortOnce stops the frame
// from echoing back and forth).
func (m *Machine) fail(err error) {
	m.abortOnce.Do(func() {
		ae := cluster.AsAborted(m.rank, err)
		m.abortMu.Lock()
		m.abortErr = ae
		m.abortMu.Unlock()
		m.abortFlag.Store(true)
		m.broadcastAbort(ae)
		m.stop()
		for _, pc := range m.snapshotPeers() {
			if pc != nil {
				pc.box.wakeAll()
			}
		}
	})
}

// broadcastAbort sends the abort frame to every peer (best effort,
// bounded: a busy write lane is waited for until a shared deadline, each
// write has a short deadline) and then poisons every connection's write
// deadline so a sender stuck mid-write to a wedged peer unwinds through
// its own deadline error. A peer skipped would learn of the abort from
// this rank's closing connection, and blame this rank.
func (m *Machine) broadcastAbort(ae *cluster.ErrAborted) {
	payload := encodeAbort(ae)
	hdr := putHeader(tagAbort, len(payload))
	wait := time.Now().Add(500 * time.Millisecond)
	for rank, pc := range m.snapshotPeers() {
		if rank == m.rank || pc == nil || pc.conn == nil {
			continue
		}
		locked := pc.wmu.TryLock()
		for ; !locked && time.Now().Before(wait); locked = pc.wmu.TryLock() {
			time.Sleep(time.Millisecond) // poisoning the frame in flight could cut it short
		}
		if locked {
			pc.conn.SetWriteDeadline(time.Now().Add(500 * time.Millisecond))
			bufs := net.Buffers{hdr[:], payload}
			bufs.WriteTo(pc.conn) // best effort: EOF peers learn via their read side
			pc.wmu.Unlock()
		}
		// A writer holding wmu (or a later one) hits this deadline,
		// observes abortFlag and unwinds instead of blocking forever on
		// a full send buffer to a dead or wedged peer.
		pc.conn.SetWriteDeadline(time.Now())
	}
}

// encodeAbort frames an abort for the wire: int32 culprit rank, then
// the cause string.
func encodeAbort(ae *cluster.ErrAborted) []byte {
	cause := "unknown cause"
	if ae.Cause != nil {
		cause = ae.Cause.Error()
	}
	b := make([]byte, 4+len(cause))
	binary.LittleEndian.PutUint32(b[:4], uint32(int32(ae.Rank)))
	copy(b[4:], cause)
	return b
}

// decodeAbort parses an abort frame; a malformed frame is attributed
// to the sender.
func decodeAbort(payload []byte, src int) (culprit int, cause error) {
	if len(payload) < 4 {
		return src, fmt.Errorf("abort from rank %d (malformed frame)", src)
	}
	culprit = int(int32(binary.LittleEndian.Uint32(payload[:4])))
	if culprit != cluster.JobRank && (culprit < 0 || culprit >= 1<<20) {
		culprit = src
	}
	return culprit, fmt.Errorf("abort relayed by rank %d: %s", src, payload[4:])
}

func (m *Machine) failNow(err error) {
	m.fail(err)
	panic(tcpAbort{})
}

// Abort implements cluster.Machine: external job-level cancellation.
// The local PE unwinds (Run returns *cluster.ErrAborted with Rank
// cluster.JobRank) and the abort fans out to the peer processes.
func (m *Machine) Abort(cause error) {
	m.fail(&cluster.ErrAborted{Rank: cluster.JobRank, Cause: cause})
}

// Kill severs the machine abruptly: no goodbye, no abort broadcast,
// connections dropped mid-protocol — to the peers this is exactly what
// a SIGKILLed or segfaulted worker looks like. The fault-injection
// plane uses it to make one in-process rank "crash"; after Kill the
// machine is unusable and Close only releases local resources.
func (m *Machine) Kill() {
	m.closed.Store(true)
	m.stop()
	for _, pc := range m.snapshotPeers() {
		if pc != nil {
			if pc.conn != nil {
				pc.conn.Close()
			}
			pc.box.wakeAll()
		}
	}
	if m.ln != nil {
		m.ln.Close()
	}
}

// Wedge simulates a stuck-but-alive process: heartbeats stop flowing
// out, connections stay open, reads keep draining. Peers blocked on
// this rank detect it through HeartbeatTimeout. Fault injection only.
func (m *Machine) Wedge() { m.wedged.Store(true) }

// DropPeer abruptly closes the connection to one peer — the
// deterministic form of a broken link. Both ends observe a lost conn
// mid-protocol and abort attributing the other side.
func (m *Machine) DropPeer(rank int) {
	if rank < 0 || rank >= m.p || rank == m.rank {
		return
	}
	if pc := m.peers[rank]; pc != nil && pc.conn != nil {
		pc.conn.Close()
	}
}

// liveness is the machine's background pulse: it periodically records
// its tick, wakes every mailbox waiter (giving blocked pops their deadline granularity
// — sync.Cond has no timed wait) and heartbeats idle outbound conns so
// silence is evidence. It never touches the clock or phase stats,
// which belong to the PE goroutine.
func (m *Machine) liveness() {
	defer m.bg.Done()
	hb := m.cfg.HeartbeatInterval
	if hb <= 0 {
		hb = 500 * time.Millisecond
	}
	wake := min(max(hb/2, time.Millisecond), maxWake)
	t := time.NewTicker(wake)
	defer t.Stop()
	var lastHB time.Time
	for {
		select {
		case <-m.done:
			return
		case <-t.C:
			now := time.Now()
			m.tick(now.UnixNano())
			for _, pc := range m.peers {
				if pc != nil {
					pc.box.wakeAll()
				}
			}
			if m.cfg.HeartbeatInterval < 0 || m.wedged.Load() {
				continue
			}
			if now.Sub(lastHB) < hb {
				continue
			}
			lastHB = now
			m.sendHeartbeats(hb)
		}
	}
}

// maxWake is the longest the liveness goroutine sleeps between ticks.
const maxWake = 250 * time.Millisecond

// tick records a liveness tick at now. A late one ends a pause of this
// whole process (the host froze it or starved it of CPU): no peer's
// frame could be read meanwhile, so every peer's silence counts from
// the pause's end.
func (m *Machine) tick(now int64) {
	if m.late(now) {
		m.resumed.Store(now)
	}
	m.lastTick.Store(now)
}

// late reports whether the liveness tick is overdue at now by a quarter
// of HeartbeatTimeout.
func (m *Machine) late(now int64) bool {
	return time.Duration(now-m.lastTick.Load()) > maxWake+m.cfg.HeartbeatTimeout/4
}

// sendHeartbeats writes one heartbeat frame to every peer whose
// outbound lane has been idle for at least the interval. TryLock: if a
// data frame is being written right now, that frame is the heartbeat.
func (m *Machine) sendHeartbeats(interval time.Duration) {
	hdr := putHeader(tagHB, 0)
	for rank, pc := range m.peers {
		if rank == m.rank || pc == nil || pc.conn == nil {
			continue
		}
		if time.Since(time.Unix(0, pc.lastSent.Load())) < interval {
			continue
		}
		if !pc.wmu.TryLock() {
			continue
		}
		pc.conn.SetWriteDeadline(time.Now().Add(interval))
		_, err := pc.conn.Write(hdr[:])
		pc.conn.SetWriteDeadline(time.Time{})
		pc.lastSent.Store(time.Now().UnixNano())
		pc.wmu.Unlock()
		_ = err // a dead conn is the read side's discovery to make
	}
}

// sayGoodbye tells the peer this rank is shutting down cleanly, so a
// subsequent EOF on the connection is not treated as a lost peer
// (ranks of one machine may finish at different times; a fast rank's
// Close must not abort a slow rank still mid-collective with others).
func (pc *peerConn) sayGoodbye() {
	hdr := putHeader(tagClose, 0)
	pc.wmu.Lock()
	pc.conn.Write(hdr[:]) // best effort: the conn may already be gone
	pc.wmu.Unlock()
}
