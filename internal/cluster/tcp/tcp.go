// Package tcp is the real-process backend of the cluster transport
// plane: one OS process per PE, exchanging length-prefixed framed
// messages over persistent pairwise TCP connections (localhost or a
// host list). It plays the role MVAPICH plays in the paper — the
// collectives are built from point-to-point primitives with
// cluster-shaped schedules (topology.go): the rooted collectives
// (Barrier, Bcast, AllGather, AllReduceInt64) run over a binomial
// tree in O(log P) rounds, and the personalised exchanges (AllToAllv,
// ExchangeAny) follow a 1-factorization of K_P, so every round is a
// perfect matching with one exchange per link in each direction —
// balanced link load, and the machine's P² streams never funnel
// through one node.
//
// Timing differs from the sim backend by design: a tcp PE reports real
// wall-clock seconds per phase (cluster.Stats backed by time.Now), and
// modelled CPU charges are no-ops — the computation itself is already
// on the wall. Disk traffic is still tracked through the PE's
// blockio.Volume byte counters.
//
// Wire protocol, per frame: a 12-byte header (int32 tag, uint64
// payload length, both little-endian) followed by the payload. Like
// the paper's re-implemented MPI_Alltoallv, there is no message-size
// limit. Tags <= -1000 are reserved for the collectives; phase-level
// Send/Recv may use any tag above that. A per-peer reader goroutine
// drains its socket into an unbounded mailbox, so senders never block
// on the receiver's progress (eager buffering) and pairwise collective
// schedules cannot deadlock.
//
// ExchangeAny crosses address spaces, so items must be gob-encodable;
// common scalar and slice types are pre-registered, anything else
// needs gob.Register at both ends.
//
// # Failure plane
//
// A machine of real processes cannot assume a healthy fleet: any rank
// can crash (EOF mid-protocol), wedge (conn open, nothing flowing) or
// be cancelled. The backend detects and unwinds all three from the
// inside, in bounded time, without an external supervisor:
//
//   - liveness: every rank sends heartbeat frames on pairwise conns
//     that have been idle for HeartbeatInterval; a blocked receive
//     whose peer has been silent past HeartbeatTimeout fails the
//     machine with *cluster.ErrAborted naming that peer — this is how
//     a wedged (not merely closed) process is caught. OpTimeout is
//     the hard per-op backstop: no single blocking send or receive
//     outlives it even while heartbeats still flow.
//   - abort propagation: the first failure (lost conn, missed
//     heartbeats, a rank's program returning an error, Abort) fans an
//     ABORT frame out to every peer carrying the culprit rank and
//     cause, so the whole fleet unwinds peer-to-peer with consistent
//     attribution instead of each rank timing out on its own. Stuck
//     writers are unblocked by poisoning their write deadlines.
//   - bring-up: dial retries use jittered exponential backoff
//     (Backoff), bounded by ConnectTimeout.
//
// Receive-side buffering is accounted: MailboxPeakBytes reports the
// high-water mark of queued undelivered frames, and crossing
// mailboxHighWater warn-logs once.
package tcp

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"demsort/internal/blockio"
	"demsort/internal/bufpool"
	"demsort/internal/cluster"
	"demsort/internal/membudget"
	"demsort/internal/vtime"
)

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

// mailboxHighWater is the number of bytes queued undelivered across this
// PE's mailboxes past which enqueue warn-logs (once).
const mailboxHighWater = 256 << 20

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

// ErrBind marks a New failure to bind the configured listen address —
// usually the reservation race (another process grabbed a ReservePorts
// port between the launcher closing it and this worker re-binding).
// Launchers detect it with errors.Is and retry the fleet on fresh
// ports instead of letting the peers dial a dead address until their
// connect timeout.
var ErrBind = errors.New("listen address unavailable")

func init() {
	// Common metadata types so ExchangeAny works out of the box.
	gob.Register([]byte(nil))
	gob.Register([]int64(nil))
	gob.Register([]uint64(nil))
	gob.Register(int64(0))
	gob.Register(uint64(0))
	gob.Register("")
}

// Config describes this process's PE and the machine it joins.
type Config struct {
	// Rank is this process's PE index in 0..P-1.
	Rank int
	// Peers lists every PE's listen address ("host:port"), indexed by
	// rank; len(Peers) is the machine size P, and this PE binds
	// Peers[Rank].
	Peers []string
	// BlockBytes is the external-memory block size B in bytes.
	BlockBytes int
	// MemElems is the per-PE internal memory budget in elements.
	MemElems int64
	// NewStore creates the block store backing this PE's volume; nil
	// defaults to a RAM-backed store.
	NewStore func(rank int) (blockio.Store, error)
	// ConnectTimeout bounds connection establishment (dial retries
	// plus accepts); 0 means 30s.
	ConnectTimeout time.Duration
	// HeartbeatInterval is how often an idle pairwise connection
	// carries a heartbeat frame so silence means trouble rather than
	// idleness; 0 means 500ms, negative disables sending (peers will
	// flag this rank as wedged if its conns stay idle too long).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a peer may stay silent while this
	// rank blocks on it before the machine aborts with that peer as
	// the culprit — the wedged-peer detector; 0 means
	// max(10×HeartbeatInterval, 5s), negative disables.
	HeartbeatTimeout time.Duration
	// OpTimeout is the hard backstop on any single blocking send or
	// receive, independent of peer liveness (a peer can heartbeat
	// forever without sending the frame this rank needs); 0 means 2m,
	// negative disables.
	OpTimeout time.Duration
	// JobID names the job this fleet runs; it is hashed into the
	// connection handshake so a worker from a different job cannot
	// join. Empty is a valid (shared) name.
	JobID string
	// Epoch is the fleet incarnation number, carried in the handshake.
	// After a crash the launcher restarts the whole fleet at a higher
	// epoch; a straggler process from the dead incarnation that dials a
	// new-epoch listener is fenced — its connection is dropped before
	// any frame of stale data can enter the new fleet.
	Epoch int
}

// Machine hosts this process's single PE; it implements both
// cluster.Machine and cluster.Transport.
type Machine struct {
	cfg     Config
	rank    int
	p       int
	ln      net.Listener
	peers   []*peerConn // by rank; self slot is mailbox-only
	peersMu sync.Mutex  // guards slot publication during bring-up
	node    *cluster.Node
	clock   *vtime.Clock
	stats   *wallStats

	closed    atomic.Bool
	abortOnce sync.Once
	abortFlag atomic.Bool
	abortErr  *cluster.ErrAborted
	abortMu   sync.Mutex

	done     chan struct{} // closed on abort or Close: background goroutines exit
	stopOnce sync.Once
	wedged   atomic.Bool    // fault injection: stop proving liveness
	bg       sync.WaitGroup // liveness, per-peer readers, stream senders

	boxBytes atomic.Int64 // bytes currently queued undelivered
	boxPeak  atomic.Int64 // high-water mark of boxBytes
	hwWarned atomic.Bool

	fenced atomic.Int64 // connections dropped for a stale epoch/job
}

// FencedConns reports how many inbound connections were dropped at the
// handshake for presenting a stale epoch or a foreign job ID.
func (m *Machine) FencedConns() int64 { return m.fenced.Load() }

type peerConn struct {
	conn net.Conn
	wmu  sync.Mutex
	box  *mailbox

	// lastHeard/lastSent are unix nanos of the last frame read from /
	// written to this peer — the liveness plane's evidence.
	lastHeard atomic.Int64
	lastSent  atomic.Int64
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

// New joins the machine: it binds the local listen address, connects
// to every peer (rank i dials every rank below it and accepts from
// every rank above, so each pair shares one persistent connection) and
// assembles the PE context. Every process of the machine must call New
// with the same Peers list within ConnectTimeout of each other.
func New(cfg Config) (*Machine, error) {
	p := len(cfg.Peers)
	if p < 1 {
		return nil, fmt.Errorf("tcp: empty peer list")
	}
	if cfg.Rank < 0 || cfg.Rank >= p {
		return nil, fmt.Errorf("tcp: rank %d outside peer list of %d", cfg.Rank, p)
	}
	if cfg.BlockBytes <= 0 {
		return nil, fmt.Errorf("tcp: block size must be positive, got %d", cfg.BlockBytes)
	}
	if cfg.ConnectTimeout <= 0 {
		cfg.ConnectTimeout = 30 * time.Second
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 500 * time.Millisecond
	}
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = 10 * cfg.HeartbeatInterval
		if cfg.HeartbeatTimeout < 5*time.Second {
			cfg.HeartbeatTimeout = 5 * time.Second
		}
	}
	if cfg.OpTimeout == 0 {
		cfg.OpTimeout = 2 * time.Minute
	}
	m := &Machine{cfg: cfg, rank: cfg.Rank, p: p, peers: make([]*peerConn, p), done: make(chan struct{})}
	m.peers[cfg.Rank] = &peerConn{box: newMailbox()} // rank-local messages

	if p > 1 {
		addr := cfg.Peers[cfg.Rank]
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			// Only an address already in use is the reservation race
			// (ErrBind → launcher retries on fresh ports); a bad or
			// unroutable listen address is not retryable.
			if errors.Is(err, syscall.EADDRINUSE) {
				return nil, fmt.Errorf("tcp: rank %d listen %s (%v): %w", cfg.Rank, addr, err, ErrBind)
			}
			return nil, fmt.Errorf("tcp: rank %d listen %s: %w", cfg.Rank, addr, err)
		}
		m.ln = ln
		if err := m.connect(); err != nil {
			m.Close()
			return nil, err
		}
	}

	var store blockio.Store
	var err error
	if cfg.NewStore != nil {
		store, err = cfg.NewStore(cfg.Rank)
	} else {
		store = blockio.NewMemStore()
	}
	if err != nil {
		m.Close()
		return nil, err
	}
	m.clock = vtime.NewClock()
	m.stats = newWallStats(m.clock)
	m.node = cluster.NewNode(
		m,
		m.stats,
		// Byte counters are real; the volume's modelled I/O durations are
		// not read on this backend.
		blockio.NewVolume(store, cfg.BlockBytes, cfg.Rank, vtime.Default(), m.clock),
		membudget.New(cfg.MemElems),
	)
	m.bg.Add(1)
	go m.liveness()
	return m, nil
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

// Close says goodbye to every peer, then tears down connections,
// listener, background goroutines and the store. On return no
// machine-owned goroutine is left running (the leak checks in the
// tests pin this).
func (m *Machine) Close() error {
	for _, pc := range m.peers {
		if pc != nil && pc.conn != nil && !m.closed.Load() && !m.abortFlag.Load() {
			pc.sayGoodbye()
		}
	}
	m.closed.Store(true)
	m.stop()
	for _, pc := range m.peers {
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
	m.bg.Wait()
	if m.node != nil {
		return m.node.Vol.Store().Close()
	}
	return nil
}

// stop makes the background goroutines (liveness, stream senders) exit.
func (m *Machine) stop() {
	m.stopOnce.Do(func() { close(m.done) })
}

// snapshotPeers copies the peer table under the publication lock, for
// walkers that may run while bring-up is still registering conns (the
// abort fan-out paths). After connect returns the table is immutable.
func (m *Machine) snapshotPeers() []*peerConn {
	m.peersMu.Lock()
	defer m.peersMu.Unlock()
	out := make([]*peerConn, len(m.peers))
	copy(out, m.peers)
	return out
}

// Nodes returns the locally hosted PE contexts: exactly one.
func (m *Machine) Nodes() []*cluster.Node { return []*cluster.Node{m.node} }

// P returns the machine size.
func (m *Machine) P() int { return m.p }

// Rank implements cluster.Transport.
func (m *Machine) Rank() int { return m.rank }

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
// bounded: TryLock the write lane, short write deadline) and then
// poisons every connection's write deadline so a sender stuck mid-write
// to a wedged peer unwinds through its own deadline error.
func (m *Machine) broadcastAbort(ae *cluster.ErrAborted) {
	payload := encodeAbort(ae)
	hdr := putHeader(tagAbort, len(payload))
	for rank, pc := range m.snapshotPeers() {
		if rank == m.rank || pc == nil || pc.conn == nil {
			continue
		}
		if pc.wmu.TryLock() {
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

// MailboxPeakBytes implements cluster.MailboxStats: the high-water
// mark of bytes queued undelivered across this PE's mailboxes.
func (m *Machine) MailboxPeakBytes() int64 { return m.boxPeak.Load() }

// liveness is the machine's background pulse: it periodically wakes
// every mailbox waiter (giving blocked pops their deadline granularity
// — sync.Cond has no timed wait) and heartbeats idle outbound conns so
// silence is evidence. It never touches the clock or phase stats,
// which belong to the PE goroutine.
func (m *Machine) liveness() {
	defer m.bg.Done()
	hb := m.cfg.HeartbeatInterval
	if hb <= 0 {
		hb = 500 * time.Millisecond
	}
	wake := hb / 2
	if wake < time.Millisecond {
		wake = time.Millisecond
	}
	if wake > 250*time.Millisecond {
		wake = 250 * time.Millisecond
	}
	t := time.NewTicker(wake)
	defer t.Stop()
	var lastHB time.Time
	for {
		select {
		case <-m.done:
			return
		case now := <-t.C:
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

// Run executes fn on the local PE (in the calling goroutine) and
// returns its error, or the transport failure that unwound it. Any
// failure — fn returning an error included — aborts the machine, so
// the peers unwind too instead of blocking on a rank that has given
// up.
func (m *Machine) Run(fn func(*cluster.Node) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(tcpAbort); ok {
				m.abortMu.Lock()
				err = m.abortErr
				m.abortMu.Unlock()
				return
			}
			m.fail(cluster.AsAborted(m.rank, fmt.Errorf("tcp: PE %d panicked: %v", m.rank, r)))
			m.abortMu.Lock()
			err = m.abortErr
			m.abortMu.Unlock()
		}
	}()
	if err := fn(m.node); err != nil {
		ae := cluster.AsAborted(m.rank, fmt.Errorf("PE %d: %w", m.rank, err))
		m.fail(ae)
		m.abortMu.Lock()
		recorded := m.abortErr
		m.abortMu.Unlock()
		return recorded
	}
	if m.abortFlag.Load() {
		m.abortMu.Lock()
		defer m.abortMu.Unlock()
		return m.abortErr
	}
	return nil
}

// ---------------------------------------------------------------------
// Framed point-to-point primitives.
// ---------------------------------------------------------------------

type frame struct {
	tag     int
	payload []byte
}

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
// no liveness question about this process).
func (m *Machine) stalled(src int, pc *peerConn, start time.Time) error {
	now := time.Now()
	if ot := m.cfg.OpTimeout; ot > 0 && now.Sub(start) > ot {
		return cluster.Abortedf(src, "tcp: rank %d: receive from rank %d exceeded the %v op deadline", m.rank, src, ot)
	}
	if src != m.rank {
		if ht := m.cfg.HeartbeatTimeout; ht > 0 {
			if silent := now.Sub(time.Unix(0, pc.lastHeard.Load())); silent > ht {
				return cluster.Abortedf(src, "tcp: rank %d: rank %d silent for %v (heartbeat timeout %v) — presumed dead or wedged",
					m.rank, src, silent.Round(time.Millisecond), ht)
			}
		}
	}
	return nil
}

// writeFrame writes one frame to dst's socket and returns the write
// error instead of failing the machine — the shared write path of
// sendFrame and of writeExchange, which also runs on the stream's sender
// goroutine and so must never panic or touch the PE-owned clock. Writes
// are bounded by OpTimeout so a wedged receiver with a full socket
// buffer cannot block a writer forever; an abort elsewhere poisons the
// write deadline and unblocks it immediately.
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

// ---------------------------------------------------------------------
// Collectives from point-to-point.
// ---------------------------------------------------------------------

// Barrier implements cluster.Transport: a binomial-tree reduce to
// rank 0 followed by a tree release, O(log P) rounds each way.
func (m *Machine) Barrier() {
	if m.p == 1 {
		return
	}
	children, parent := btreeUp(m.rank, m.p)
	for _, c := range children {
		bufpool.Put(m.recvFrame(c, tagBarrier))
	}
	if parent >= 0 {
		m.sendFrame(parent, tagBarrier, nil)
		bufpool.Put(m.recvFrame(parent, tagBarrierAck))
	}
	for i := len(children) - 1; i >= 0; i-- {
		m.sendFrame(children[i], tagBarrierAck, nil)
	}
}

// errAborting is what writeExchange returns when it stops because the
// machine is already failing; the recorded abort carries the attribution.
var errAborting = errors.New("tcp: machine is aborting")

// writeExchange is the one place an all-to-all's frames are written: in
// 1-factor round order — the rounds partition all rank pairs into
// perfect matchings, so every link carries exactly one exchange per
// round in each direction and the machine's P² streams never funnel
// through one node — and with the ownership Transport.AllToAllv
// documents: each non-self payload goes back to the arena as soon as it
// is on the wire. It returns the payload bytes written and, for a failed
// write, an *ErrAborted naming the peer; it never panics and never
// touches the PE-owned clock, so AllToAllv runs it on the PE goroutine
// and the stream on its sender goroutine.
func (m *Machine) writeExchange(send [][]byte) (sent int64, err error) {
	for r := 0; r < oneFactorRounds(m.p); r++ {
		q := oneFactorPartner(m.rank, r, m.p)
		if q < 0 {
			continue // odd P: paired with the dummy this round
		}
		if m.abortFlag.Load() {
			return sent, errAborting
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
// frame per 1-factor partner, on the PE goroutine (recvFrame charges
// blocked and network time per round). Eager reader-side buffering makes
// the schedule deadlock-free even when ranks progress at different
// rates. self is this rank's own message, delivered uncopied and
// off-network.
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
// collectExchange, both inline on the PE goroutine, so each PE stages
// only its own O(N/P) send and receive buffers. The write duration
// counts as blocked time, as for any sendFrame.
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

// a2aStream is the pipelined AllToAllv path (cluster.A2AStream): the same
// writeExchange and collectExchange with the write behind a sender
// goroutine, which drains posted exchanges onto the wire while the PE
// goroutine encodes the next exchange or collects the previous one — the
// double-buffered all-to-all of §IV-E. Per-peer frame order is preserved
// (one FIFO sender, ordered TCP, no other collectives while the stream
// is open), so the collect side matches exchanges one to one.
//
// Division of labour: the sender goroutine only writes sockets and hands
// each finished exchange's byte count back over written, which Collect
// receives from — so a collected exchange is a written one, and its wire
// accounting reaches the PE-owned clock on the PE goroutine. On a write
// error the sender fails the machine via m.fail (never panic, which only
// the PE goroutine may do) and exits. Abort unwinds close m.done, which
// the sender and Collect select on, so Close always joins in bounded
// time.
type a2aStream struct {
	m      *Machine
	window int

	sendQ      chan [][]byte // posted, not yet written; cap = window
	written    chan int64    // wire bytes of each written exchange, uncollected; cap = window
	senderDone chan struct{} // closed when the sender goroutine exits

	selfQ  [][]byte // self payloads of posted exchanges, FIFO
	posted int      // exchanges posted but not collected
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

// Post implements cluster.A2AStream. It never blocks: the vector is
// handed to the sender goroutine, whose queue has room for the full
// window (posted ≤ window is enforced here, and a collected exchange has
// left the queue).
func (s *a2aStream) Post(send [][]byte) {
	m := s.m
	if m.abortFlag.Load() {
		panic(tcpAbort{})
	}
	if len(send) != m.p {
		m.failNow(fmt.Errorf("tcp: A2AStream Post needs %d destination slots, got %d", m.p, len(send)))
	}
	if s.posted >= s.window {
		m.failNow(fmt.Errorf("tcp: A2AStream window overflow: %d exchanges already in flight (window %d)", s.posted, s.window))
	}
	s.posted++
	s.selfQ = append(s.selfQ, send[m.rank])
	if m.p > 1 {
		s.sendQ <- send
	}
}

// Collect implements cluster.A2AStream: it receives the oldest posted
// exchange's frames, then waits until the sender has written this PE's
// own frames of that exchange (usually long done — the peers' frames took
// the same trip) and charges their bytes; the wait counts as blocked
// time. With one PE nothing was queued and there is nothing to wait for.
func (s *a2aStream) Collect() [][]byte {
	m := s.m
	if s.posted == 0 {
		m.failNow(fmt.Errorf("tcp: A2AStream Collect without a posted exchange"))
	}
	s.posted--
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
	s.posted = 0
}

// Closed implements cluster.A2AStream.
func (s *a2aStream) Closed() bool { return s.closed }

// sender writes posted exchanges in posting order and reports each one's
// byte count (written has room: at most window are uncollected). A failed
// write fails the machine — unless the machine was killed or closed,
// whose severed sockets are not the peer's fault (a SIGKILLed worker
// broadcasts nothing) — and the PE goroutine unwinds through its own
// blocked receive or Collect's wait.
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

// bcastTree distributes data down the binomial tree rooted at root
// with the given tag and returns this rank's copy. Non-root ranks
// copy the payload out of the pooled receive buffer (the result is
// retained by callers and shared structurally, so it must not alias
// the arena) and recycle it before relaying.
func (m *Machine) bcastTree(root int, data []byte, tag int) []byte {
	vrank := (m.rank - root + m.p) % m.p
	children, parent := btreeUp(vrank, m.p)
	if parent >= 0 {
		payload := m.recvFrame((parent+root)%m.p, tag)
		data = append(make([]byte, 0, len(payload)), payload...)
		bufpool.Put(payload)
	}
	for i := len(children) - 1; i >= 0; i-- { // descending subtree size
		m.sendFrame((children[i]+root)%m.p, tag, data)
	}
	return data
}

// AllGather implements cluster.Transport: a binomial-tree gather to
// rank 0 (each node forwards its subtree's parts as one
// length-prefixed vector), then a tree broadcast of the full
// concatenation, O(log P) rounds each way. The returned slices share
// the broadcast vector structurally; no pooled buffer escapes.
func (m *Machine) AllGather(data []byte) [][]byte {
	if m.p == 1 {
		return [][]byte{data}
	}
	parts := make([][]byte, m.p) // indexed by rank; this node fills [rank, rank+span)
	parts[m.rank] = data
	children, parent := btreeUp(m.rank, m.p)
	var pooled [][]byte // children's vectors: recycled after re-encoding
	for _, c := range children {
		payload := m.recvFrame(c, tagGather)
		copy(parts[c:], decodeVec(payload, btreeSpan(c, m.p)))
		pooled = append(pooled, payload)
	}
	var full []byte
	if parent >= 0 {
		m.sendFrame(parent, tagGather, encodeVec(parts[m.rank:m.rank+btreeSpan(m.rank, m.p)]))
		for _, b := range pooled {
			bufpool.Put(b)
		}
		full = m.bcastTree(0, nil, tagGatherVec)
	} else {
		full = encodeVec(parts)
		for _, b := range pooled {
			bufpool.Put(b)
		}
		m.bcastTree(0, full, tagGatherVec)
	}
	return decodeVec(full, m.p)
}

// Bcast implements cluster.Transport: binomial tree from root,
// O(log P) rounds.
func (m *Machine) Bcast(root int, data []byte) []byte {
	if m.p == 1 {
		return data
	}
	return m.bcastTree(root, data, tagBcast)
}

// AllReduceInt64 implements cluster.Transport: a binomial-tree reduce
// to rank 0 (partial results combine on the way up), then a tree
// broadcast of the result, O(log P) rounds each way.
func (m *Machine) AllReduceInt64(v int64, op string) int64 {
	reduce := func(acc, x int64) int64 {
		switch op {
		case "sum":
			return acc + x
		case "max":
			if x > acc {
				return x
			}
			return acc
		case "min":
			if x < acc {
				return x
			}
			return acc
		case "or":
			return acc | x
		default:
			m.failNow(fmt.Errorf("tcp: unknown reduce op %q", op))
			return 0
		}
	}
	if m.p == 1 {
		reduce(0, 0) // still validate op
		return v
	}
	children, parent := btreeUp(m.rank, m.p)
	acc := v
	for _, c := range children {
		x := m.recvFrame(c, tagReduce)
		acc = reduce(acc, int64(binary.LittleEndian.Uint64(x)))
		bufpool.Put(x)
	}
	var buf [8]byte
	if parent >= 0 {
		binary.LittleEndian.PutUint64(buf[:], uint64(acc))
		m.sendFrame(parent, tagReduce, buf[:])
		res := m.recvFrame(parent, tagReduceRes)
		acc = int64(binary.LittleEndian.Uint64(res))
		bufpool.Put(res)
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(acc))
	for i := len(children) - 1; i >= 0; i-- {
		m.sendFrame(children[i], tagReduceRes, buf[:])
	}
	return acc
}

// ExchangeAny implements cluster.Transport: items cross address
// spaces gob-encoded, on the same 1-factorization schedule as
// AllToAllv. nominalBytes is a cost-model parameter without meaning on
// this backend.
func (m *Machine) ExchangeAny(items []any, nominalBytes int) []any {
	if len(items) != m.p {
		m.failNow(fmt.Errorf("tcp: ExchangeAny needs %d items, got %d", m.p, len(items)))
	}
	out := make([]any, m.p)
	out[m.rank] = items[m.rank]
	for r := 0; r < oneFactorRounds(m.p); r++ {
		q := oneFactorPartner(m.rank, r, m.p)
		if q < 0 {
			continue
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&items[q]); err != nil {
			m.failNow(fmt.Errorf("tcp: ExchangeAny encode for %d: %w", q, err))
		}
		m.sendFrame(q, tagXAny, buf.Bytes())
		payload := m.recvFrame(q, tagXAny)
		var v any
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&v); err != nil {
			m.failNow(fmt.Errorf("tcp: ExchangeAny decode from %d: %w", q, err))
		}
		bufpool.Put(payload)
		out[q] = v
	}
	return out
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

// encodeVec frames P byte slices as [P × uint64 length][concat].
func encodeVec(parts [][]byte) []byte {
	total := 8 * len(parts)
	for _, p := range parts {
		total += len(p)
	}
	vec := make([]byte, 0, total)
	var tmp [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(tmp[:], uint64(len(p)))
		vec = append(vec, tmp[:]...)
	}
	for _, p := range parts {
		vec = append(vec, p...)
	}
	return vec
}

// decodeVec slices an encodeVec payload back into P parts (sharing
// the backing array — AllGather results are structurally shared).
func decodeVec(vec []byte, p int) [][]byte {
	parts := make([][]byte, p)
	off := 8 * p
	for i := 0; i < p; i++ {
		n := int(binary.LittleEndian.Uint64(vec[8*i:]))
		parts[i] = vec[off : off+n : off+n]
		off += n
	}
	return parts
}

// ---------------------------------------------------------------------
// Wall-clock stats.
// ---------------------------------------------------------------------

// wallStats implements cluster.Stats over real time: phase wall
// seconds come from time.Now, byte/message counters ride on the
// underlying clock's PhaseStats (which the Volume and the transport
// already charge), and modelled CPU charges are dropped — the real
// computation is already on the wall.
type wallStats struct {
	clock *vtime.Clock
	start time.Time
	wall  map[string]float64
}

func newWallStats(c *vtime.Clock) *wallStats {
	return &wallStats{clock: c, start: time.Now(), wall: map[string]float64{}}
}

// SetPhase implements cluster.Stats.
func (s *wallStats) SetPhase(name string) {
	now := time.Now()
	s.wall[s.clock.Phase()] += now.Sub(s.start).Seconds()
	s.start = now
	s.clock.SetPhase(name)
}

// Phase implements cluster.Stats.
func (s *wallStats) Phase() string { return s.clock.Phase() }

// AddCPU implements cluster.Stats: modelled charges are meaningless on
// a wall-clock backend.
func (s *wallStats) AddCPU(sec float64) {}

// Stats implements cluster.Stats: the virtual clock's per-phase
// counters with Wall replaced by measured wall-clock seconds.
func (s *wallStats) Stats() (names []string, stats map[string]*vtime.PhaseStats) {
	now := time.Now()
	s.wall[s.clock.Phase()] += now.Sub(s.start).Seconds()
	s.start = now
	names, stats = s.clock.Stats()
	for ph, st := range stats {
		st.Wall = s.wall[ph]
	}
	return names, stats
}

// Interface conformance.
var (
	_ cluster.Machine            = (*Machine)(nil)
	_ cluster.Transport          = (*Machine)(nil)
	_ cluster.MailboxStats       = (*Machine)(nil)
	_ cluster.StreamingTransport = (*Machine)(nil)
	_ cluster.Stats              = (*wallStats)(nil)
)
