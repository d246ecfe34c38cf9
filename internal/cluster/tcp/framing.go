package tcp

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"demsort/internal/bufpool"
	"demsort/internal/cluster"
)

// ---------------------------------------------------------------------
// Framed point-to-point primitives.
// ---------------------------------------------------------------------

// Reserved collective tags (outside the phase-level tag space).
const (
	tagBarrier    = -1000
	tagBarrierAck = -1001
	tagGather     = -1002
	tagGatherVec  = -1003
	tagBcast      = -1004
	tagReduce     = -1005
	tagReduceRes  = -1006
	tagA2A        = -1007
	tagXAny       = -1008
	tagClose      = -1009 // goodbye: the peer is shutting down cleanly
	tagAbort      = -1010 // abort fan-out: payload = culprit rank + cause
	tagHB         = -1011 // heartbeat: empty, consumed by the reader
)

// frameOverhead is the accounting weight of one queued frame beyond
// its payload (the wire header).
const frameOverhead = 12

// putHeader renders the 12-byte wire header of one frame: the tag as a
// little-endian int32, then the payload size as a uint64.
func putHeader(tag, size int) (hdr [frameOverhead]byte) {
	binary.LittleEndian.PutUint32(hdr[:4], uint32(int32(tag)))
	binary.LittleEndian.PutUint64(hdr[4:], uint64(size))
	return hdr
}

type frame struct {
	tag     int
	payload []byte
}

// readLoop drains one peer's socket into its mailbox; it owns the read
// side of the connection. Payload buffers come from the shared arena
// and are owned by the consumer after delivery (RecycleRecv applies).
// Every frame — data, goodbye, heartbeat, abort — counts as proof of
// life for the peer.
func (m *Machine) readLoop(src int, pc *peerConn) {
	defer m.bg.Done()
	var hdr [12]byte
	for {
		if _, err := io.ReadFull(pc.conn, hdr[:]); err != nil {
			if !m.closed.Load() && !m.abortFlag.Load() && !pc.box.isClosed() {
				m.fail(cluster.Abortedf(src, "tcp: rank %d lost rank %d: %w", m.rank, src, err))
			}
			return
		}
		pc.lastHeard.Store(time.Now().UnixNano())
		tag := int(int32(binary.LittleEndian.Uint32(hdr[:4])))
		size := binary.LittleEndian.Uint64(hdr[4:12])
		var payload []byte
		if size > 0 {
			payload = bufpool.Get(int(size))
			if _, err := io.ReadFull(pc.conn, payload); err != nil {
				if !m.closed.Load() && !m.abortFlag.Load() {
					m.fail(cluster.Abortedf(src, "tcp: rank %d lost rank %d mid-frame: %w", m.rank, src, err))
				}
				return
			}
		}
		switch tag {
		case tagHB:
			// Liveness only; never delivered.
			bufpool.Put(payload)
		case tagClose:
			// The peer is done; any frames it owed us are already in
			// the mailbox (TCP is ordered), so a later empty wait on
			// this peer is a genuine protocol error, not a race.
			bufpool.Put(payload)
			pc.box.close()
		case tagAbort:
			culprit, cause := decodeAbort(payload, src)
			bufpool.Put(payload)
			m.fail(&cluster.ErrAborted{Rank: culprit, Cause: cause})
		default:
			m.enqueue(pc, frame{tag: tag, payload: payload})
		}
	}
}

// writeFrame writes one frame to dst's socket and returns the write
// error instead of failing the machine — the shared write path of
// sendFrame and of writeExchange, which also runs on the stream's sender
// goroutine and so must never panic or touch the PE-owned clock. Writes
// are bounded by OpTimeout so a wedged receiver with a full socket
// buffer cannot block a writer forever; an abort elsewhere poisons the
// write deadline and unblocks it immediately. A dst that aborted sent
// its abort frame before closing, so a failed write waits (bounded) for
// the machine to stop, letting that abort's attribution win over dst's.
func (m *Machine) writeFrame(dst, tag int, payload []byte) error {
	pc := m.peers[dst]
	hdr := putHeader(tag, len(payload))
	bufs := net.Buffers{hdr[:], payload}
	if len(payload) == 0 {
		bufs = bufs[:1]
	}
	pc.wmu.Lock()
	if ot := m.cfg.OpTimeout; ot > 0 {
		pc.conn.SetWriteDeadline(time.Now().Add(ot))
	}
	_, err := bufs.WriteTo(pc.conn)
	if err == nil {
		pc.conn.SetWriteDeadline(time.Time{})
	}
	pc.lastSent.Store(time.Now().UnixNano())
	pc.wmu.Unlock()
	if err != nil {
		select {
		case <-m.done:
		case <-time.After(500 * time.Millisecond):
		}
	}
	return err
}

// sendFrame writes one frame to dst (self-delivery bypasses the
// network and the byte counters, matching the sim backend) and charges
// the PE's accounting; the write duration counts as blocked time.
func (m *Machine) sendFrame(dst, tag int, payload []byte) {
	if m.abortFlag.Load() {
		panic(tcpAbort{})
	}
	if dst == m.rank {
		m.enqueue(m.peers[m.rank], frame{tag: tag, payload: payload})
		return
	}
	t0 := time.Now()
	err := m.writeFrame(dst, tag, payload)
	if err != nil {
		if m.abortFlag.Load() {
			panic(tcpAbort{}) // the abort path poisoned this write
		}
		m.failNow(cluster.Abortedf(dst, "tcp: rank %d send to %d: %w", m.rank, dst, err))
	}
	st := m.clock.Cur()
	st.BlockedTime += time.Since(t0).Seconds()
	st.BytesSent += int64(len(payload))
}

// recvFrame blocks for the next frame from src and enforces the tag
// protocol; the wait is charged as network and blocked time.
func (m *Machine) recvFrame(src, tag int) []byte {
	t0 := time.Now()
	f, ok := m.popFrame(src)
	if !ok {
		if m.abortFlag.Load() {
			panic(tcpAbort{})
		}
		m.failNow(cluster.Abortedf(src, "tcp: rank %d waiting on rank %d, which has shut down", m.rank, src))
	}
	if f.tag != tag {
		m.failNow(cluster.Abortedf(m.rank, "tcp: rank %d expected tag %d from %d, got %d", m.rank, tag, src, f.tag))
	}
	st := m.clock.Cur()
	wait := time.Since(t0).Seconds()
	st.NetTime += wait
	st.BlockedTime += wait
	if src != m.rank {
		st.BytesRecv += int64(len(f.payload))
		st.Messages++
	}
	return f.payload
}

// Send implements cluster.Transport (phase-level tags must be above
// the reserved collective range).
func (m *Machine) Send(dst, tag int, payload []byte) {
	if tag <= tagBarrier {
		m.failNow(fmt.Errorf("tcp: tag %d is reserved for collectives", tag))
	}
	m.sendFrame(dst, tag, payload)
}

// Recv implements cluster.Transport.
func (m *Machine) Recv(src, tag int) []byte {
	if tag <= tagBarrier {
		m.failNow(fmt.Errorf("tcp: tag %d is reserved for collectives", tag))
	}
	return m.recvFrame(src, tag)
}
