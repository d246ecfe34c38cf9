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
//
// Files: tcp.go (Config, New, Close, Run), connect.go (bring-up and the
// handshake fence), framing.go (wire format, readLoop, send/recv),
// mailbox.go, failure.go (liveness, abort fan-out, fault hooks),
// collectives.go, stream.go (the all-to-all, inline and pipelined),
// stats.go; schedules in topology.go, placement in hostfile.go.
package tcp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"demsort/internal/blockio"
	"demsort/internal/cluster"
	"demsort/internal/membudget"
	"demsort/internal/vtime"
)

// ErrBind marks a New failure to bind the configured listen address —
// usually the reservation race (another process grabbed a ReservePorts
// port between the launcher closing it and this worker re-binding).
// Launchers detect it with errors.Is and retry the fleet on fresh
// ports instead of letting the peers dial a dead address until their
// connect timeout.
var ErrBind = errors.New("listen address unavailable")

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
		cfg.HeartbeatTimeout = max(10*cfg.HeartbeatInterval, 5*time.Second)
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

// Run executes fn on the local PE (in the calling goroutine) and
// returns its error, or the transport failure that unwound it. Any
// failure — fn returning an error included — aborts the machine, so
// the peers unwind too instead of blocking on a rank that has given
// up.
func (m *Machine) Run(fn func(*cluster.Node) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, unwound := r.(tcpAbort); !unwound {
				m.fail(cluster.Abortedf(m.rank, "tcp: PE %d panicked: %v", m.rank, r))
			}
			err = m.aborted()
		}
	}()
	if err := fn(m.node); err != nil {
		m.fail(cluster.AsAborted(m.rank, fmt.Errorf("PE %d: %w", m.rank, err)))
	}
	return m.aborted()
}

// aborted returns the recorded abort, nil while the machine is healthy.
func (m *Machine) aborted() error {
	m.abortMu.Lock()
	defer m.abortMu.Unlock()
	if m.abortErr == nil {
		return nil
	}
	return m.abortErr
}

// Interface conformance.
var (
	_ cluster.Machine            = (*Machine)(nil)
	_ cluster.Transport          = (*Machine)(nil)
	_ cluster.MailboxStats       = (*Machine)(nil)
	_ cluster.StreamingTransport = (*Machine)(nil)
	_ cluster.Stats              = (*wallStats)(nil)
)
