package tcp

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// handshake magic prefixing the dialer's announcement. The full
// handshake is hsLen bytes: magic(4) · rank(4) · epoch(4) ·
// fnv64a(JobID)(8). Epoch and job hash are the incarnation fence: an
// accepted connection presenting the wrong epoch or job is closed
// before it can deliver a single frame.
const (
	magic = 0x44454d53 // "DEMS"
	hsLen = 20
)

// jobHash is the handshake's job identity: FNV-1a over the JobID.
func jobHash(jobID string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(jobID); i++ {
		h ^= uint64(jobID[i])
		h *= 1099511628211
	}
	return h
}

// connect establishes the pairwise connections: accept from higher
// ranks while dialing lower ranks (with retries — peers may still be
// starting up).
func (m *Machine) connect() error {
	deadline := time.Now().Add(m.cfg.ConnectTimeout)
	errCh := make(chan error, 2)
	var wg sync.WaitGroup

	// Accept from every higher rank.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for accepted := 0; accepted < m.p-1-m.rank; {
			if d, ok := m.ln.(*net.TCPListener); ok {
				d.SetDeadline(deadline)
			}
			conn, err := m.ln.Accept()
			if err != nil {
				errCh <- fmt.Errorf("tcp: rank %d accept: %w", m.rank, err)
				return
			}
			// The handshake read gets its own deadline so a fenced or
			// silent dialer cannot stall bring-up of the real peers.
			conn.SetReadDeadline(deadline)
			var hs [hsLen]byte
			if _, err := io.ReadFull(conn, hs[:]); err != nil {
				errCh <- fmt.Errorf("tcp: rank %d handshake read: %w", m.rank, err)
				return
			}
			conn.SetReadDeadline(time.Time{})
			// Incarnation fence: a dialer from another job or a dead
			// epoch is dropped on the floor, not treated as a fleet
			// error — the real peer of this slot is still expected.
			if binary.LittleEndian.Uint32(hs[:4]) != magic ||
				int(binary.LittleEndian.Uint32(hs[8:12])) != m.cfg.Epoch ||
				binary.LittleEndian.Uint64(hs[12:20]) != jobHash(m.cfg.JobID) {
				m.fenced.Add(1)
				conn.Close()
				continue
			}
			src := int(binary.LittleEndian.Uint32(hs[4:8]))
			if src <= m.rank || src >= m.p || m.peers[src] != nil {
				errCh <- fmt.Errorf("tcp: rank %d: unexpected handshake from rank %d", m.rank, src)
				return
			}
			m.registerPeer(src, conn)
			accepted++
		}
	}()

	// Dial every lower rank, with jittered exponential backoff: the
	// peer may still be starting, and a whole fleet redialing in
	// lockstep (same launcher, same tick) only prolongs the contention.
	wg.Add(1)
	go func() {
		defer wg.Done()
		bo := NewBackoff(10*time.Millisecond, time.Second, uint64(m.rank)+1)
		for dst := 0; dst < m.rank; dst++ {
			bo.Reset()
			var conn net.Conn
			var err error
			for {
				conn, err = net.DialTimeout("tcp", m.cfg.Peers[dst], time.Second)
				if err == nil || time.Now().After(deadline) {
					break
				}
				time.Sleep(bo.Next())
			}
			if err != nil {
				errCh <- fmt.Errorf("tcp: rank %d dial rank %d (%s): %w", m.rank, dst, m.cfg.Peers[dst], err)
				return
			}
			var hs [hsLen]byte
			binary.LittleEndian.PutUint32(hs[:4], magic)
			binary.LittleEndian.PutUint32(hs[4:8], uint32(m.rank))
			binary.LittleEndian.PutUint32(hs[8:12], uint32(m.cfg.Epoch))
			binary.LittleEndian.PutUint64(hs[12:20], jobHash(m.cfg.JobID))
			if _, err := conn.Write(hs[:]); err != nil {
				errCh <- fmt.Errorf("tcp: rank %d handshake write to %d: %w", m.rank, dst, err)
				return
			}
			m.registerPeer(dst, conn)
		}
	}()

	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
	}
	for src := range m.peers {
		if src != m.rank && m.peers[src] == nil {
			return fmt.Errorf("tcp: rank %d: no connection to rank %d", m.rank, src)
		}
	}
	return nil
}

func (m *Machine) registerPeer(rank int, conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	pc := &peerConn{conn: conn, box: newMailbox()}
	now := time.Now().UnixNano()
	pc.lastHeard.Store(now)
	pc.lastSent.Store(now)
	// Published under the lock: an early-registered peer's readLoop can
	// fail (and so walk every slot) while bring-up is still registering.
	m.peersMu.Lock()
	m.peers[rank] = pc
	m.peersMu.Unlock()
	m.bg.Add(1)
	go m.readLoop(rank, pc)
}

// ReservePorts picks p distinct free localhost listen addresses by
// briefly binding 127.0.0.1:0 — the launcher's (and the tests') way to
// build a Peers list. The listeners are closed before the machines
// bind, so a rare race with another process grabbing a port in between
// is possible; New reports that as ErrBind, and launchers respond by
// reaping the fleet and retrying with a fresh reservation (explicit
// ports sidestep the race entirely).
func ReservePorts(p int) ([]string, error) {
	addrs := make([]string, p)
	lns := make([]net.Listener, 0, p)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < p; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("tcp: reserving port %d of %d: %w", i, p, err)
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}
