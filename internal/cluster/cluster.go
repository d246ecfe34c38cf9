// Package cluster defines the transport-agnostic machine abstraction
// the sorting phases program against: P PEs, each with a private
// address space, exchanging data only through MPI-like collectives:
// the sorters call Barrier, AllGather, AllReduceInt64 and AllToAllv
// (the last also as a pipelined A2AStream). The paper's implementation
// runs over MVAPICH/InfiniBand; here the communication surface is the
// Transport interface, with two backends:
//
//   - cluster/sim — the single-process simulator: every PE is a
//     goroutine, collectives rendezvous deterministically, and a
//     virtual-time cost model (calibrated to the paper's testbed)
//     charges network and disk time so phase timings reproduce the
//     shape of the paper's figures. It implements only the
//     collectives the sorters call: Transport's Bcast, ExchangeAny,
//     Send and Recv abort the run;
//   - cluster/tcp — one OS process per PE, length-prefixed framed
//     messages over persistent pairwise TCP connections, collectives
//     built from point-to-point over cluster-shaped schedules (a
//     binomial tree for the rooted collectives, a 1-factorization of
//     K_P for the personalised exchanges); timings are real
//     wall-clock. It implements the whole Transport.
//
// Phase code (job, core, stripesort, baseline, dselect, mselect) sees
// only *Node — a facade over a Transport plus the PE's local volume,
// memory tracker and per-phase Stats — so the same algorithms run
// unchanged on the simulator and on real processes. Like the paper's
// re-implemented MPI_Alltoallv (which broke MPI's 2 GiB counts limit),
// AllToAllv has no message-size limit in either backend.
package cluster

import (
	"errors"
	"fmt"

	"demsort/internal/blockio"
	"demsort/internal/bufpool"
	"demsort/internal/membudget"
	"demsort/internal/vtime"
)

// JobRank is the ErrAborted rank for failures that belong to the job
// rather than to any PE: an external cancellation (context, Abort) or
// a launcher-level decision.
const JobRank = -1

// ErrAborted is the typed failure of an aborted machine run: every
// rank of the machine — the one at fault and every survivor that was
// unwound by the abort propagation — returns it from Machine.Run, with
// Rank naming the PE the failure is attributed to (JobRank for
// external cancellations) and Cause carrying the underlying error.
// Unwrap exposes Cause, so errors.Is/As reach through to injected or
// sentinel errors.
type ErrAborted struct {
	// Rank is the PE at fault: the one that crashed, wedged, returned
	// an error, or hit a protocol bug — as attributed by the rank that
	// detected it (JobRank for job-level cancellation).
	Rank int
	// Cause is the underlying failure.
	Cause error
}

// Error implements error.
func (e *ErrAborted) Error() string {
	if e.Rank == JobRank {
		return fmt.Sprintf("aborted: job: %v", e.Cause)
	}
	return fmt.Sprintf("aborted: rank %d: %v", e.Rank, e.Cause)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ErrAborted) Unwrap() error { return e.Cause }

// Abortedf builds an *ErrAborted attributed to rank from a format
// string (backend convenience).
func Abortedf(rank int, format string, args ...any) *ErrAborted {
	return &ErrAborted{Rank: rank, Cause: fmt.Errorf(format, args...)}
}

// AsAborted wraps err into an *ErrAborted attributed to rank, unless
// it already is one (the first attribution wins: an error that crossed
// the machine as an abort frame keeps naming the original culprit).
func AsAborted(rank int, err error) *ErrAborted {
	var ae *ErrAborted
	if errors.As(err, &ae) {
		return ae
	}
	return &ErrAborted{Rank: rank, Cause: err}
}

// Transport is the communication surface of one PE: the MPI-like
// collectives the phases are written against, plus Bcast, ExchangeAny,
// Send and Recv, which no sorter calls — only the tcp backend
// implements them; on the sim each aborts the run, attributed to the
// caller. Implementations are owned by a single PE "program"
// goroutine; calls are collective (every PE of the machine must make
// matching calls in the same order) except Send/Recv.
//
// Transports do not return errors: a communication failure (protocol
// mismatch, lost peer) aborts the whole machine run, unwinding the PE
// goroutine through a backend-internal panic that Machine.Run recovers
// into the returned error — phase code stays free of transport error
// plumbing, exactly as with MPI's default error handler. An aborted
// run surfaces as *ErrAborted naming the rank at fault: backends
// detect failed peers themselves (lost connections, missed
// heartbeats, per-op deadlines on the tcp backend) and fan the abort
// out peer to peer, so every surviving rank unwinds from the inside
// in bounded time instead of waiting for an external supervisor.
type Transport interface {
	// Rank is this PE's index in 0..P-1; P is the machine size.
	Rank() int
	P() int

	// Barrier synchronises all PEs (and, on the sim backend, their
	// virtual clocks).
	Barrier()
	// AllToAllv sends send[j] to PE j and returns what every PE sent
	// to this one (recv[j] = bytes from PE j). nil entries are
	// allowed. The self-message send[rank] is delivered without
	// touching the network and without being copied. The send buffers
	// belong to the transport from the call on — it hands them to the
	// receiver or, once written, to the arena, so the caller must not
	// touch them again — and the received ones to the caller (see
	// RecycleRecv).
	AllToAllv(send [][]byte) [][]byte
	// AllGather collects each PE's byte slice; the result is indexed
	// by rank and may be shared structurally (callers must not mutate
	// it).
	AllGather(data []byte) [][]byte
	// Bcast distributes root's data to every PE; the result may be
	// shared structurally.
	Bcast(root int, data []byte) []byte
	// AllReduceInt64 combines every PE's value with op ("sum", "max",
	// "min", "or") and returns the result to all.
	AllReduceInt64(v int64, op string) int64
	// ExchangeAny is a generic personalised exchange of small
	// metadata values: item j goes to PE j, the result holds one item
	// from each PE, charged at nominalBytes per item. Backends that
	// cross address spaces (tcp) require gob-encodable items.
	ExchangeAny(items []any, nominalBytes int) []any
	// Send transmits payload to PE dst with a tag; Recv blocks for
	// the next message from src, which must carry the given tag
	// (a mismatch is a protocol bug and fails the machine). Messages
	// from one sender arrive in order.
	Send(dst, tag int, payload []byte)
	Recv(src, tag int) []byte
}

// Stats is the per-phase time/traffic accounting of one PE. The sim
// backend implements it with a virtual clock (*vtime.Clock satisfies
// the interface directly), so AddCPU advances modelled time; the tcp
// backend measures real wall-clock per phase and ignores modelled CPU
// charges (real computation is already on the wall). Byte and message
// counters are real in both backends.
type Stats interface {
	// SetPhase closes the running phase (accumulating its wall time)
	// and switches accounting to name; re-entering accumulates.
	SetPhase(name string)
	// Phase returns the current phase name.
	Phase() string
	// AddCPU charges modelled CPU seconds to the current phase.
	AddCPU(sec float64)
	// Stats finalises the running phase and returns the per-phase
	// statistics in first-use order.
	Stats() (names []string, stats map[string]*vtime.PhaseStats)
}

// Machine is a set of locally hosted PEs over some transport. The sim
// backend hosts all P PEs in one process; the tcp backend hosts
// exactly one (this process's rank) — Nodes() and result aggregation
// therefore cover only the local ranks.
type Machine interface {
	// Run executes fn on every locally hosted PE concurrently and
	// returns the first error; on failure the remaining local PEs are
	// unblocked and unwound.
	Run(fn func(*Node) error) error
	// Nodes returns the locally hosted PE contexts (for post-run
	// stats inspection).
	Nodes() []*Node
	// P returns the machine size (total PEs across all processes).
	P() int
	// Abort fails the machine run from the outside (job cancellation,
	// supervisor decision): every blocked PE unwinds, Run returns
	// *ErrAborted with Rank JobRank and the given cause, and — on
	// multi-process backends — the abort propagates to the peer
	// processes. Safe to call from any goroutine, including when no
	// run is active (the next Run observes it).
	Abort(cause error)
	// Close releases the backend's resources (stores, sockets).
	Close() error
}

// MailboxStats is an optional Transport extension for backends that
// buffer received messages (eager buffering; tcp): it reports the peak
// number of bytes that were ever queued undelivered across this PE's
// mailboxes — the receive-side memory that membudget-style tests pin.
type MailboxStats interface {
	MailboxPeakBytes() int64
}

// A2AStream is a pipelined sequence of AllToAllv exchanges: the caller
// posts exchange s+1's send vectors while exchange s's receives are
// still draining, so encode work and the wire overlap (the §IV-E
// double-buffered all-to-all). The discipline is strict FIFO — every
// Post is answered by exactly one Collect, in order — and at most the
// stream's window of exchanges may be posted but not yet collected, so
// receive-side buffering stays O(window · exchange size).
//
// Ownership follows AllToAllv: posted send buffers belong to the stream
// (it hands them to the receiver or, once written, to the arena — the
// caller must not touch them after Post), collected buffers belong to
// the caller (RecycleRecv). A collected exchange is a written one:
// Collect returns only when this PE's own frames of that exchange have
// left its send buffers, so at most window exchanges' sends are ever
// alive. While a stream is open no other communication call may run on
// the transport — Node enforces it (Node.guard); Close (idempotent, safe
// during unwinds) must be called first.
type A2AStream interface {
	// Post enqueues one exchange's send vectors (send[j] to PE j, nil
	// entries allowed). It never blocks on the network; posting more
	// than window exchanges ahead of Collect is a protocol bug that
	// fails the machine.
	Post(send [][]byte)
	// Collect blocks for the oldest uncollected exchange's receives
	// (recv[j] = bytes from PE j, self-message uncopied) and until that
	// exchange's own sends are written.
	Collect() [][]byte
	// Close releases the stream. Calling it with posted-but-uncollected
	// exchanges pending is only legal during an abort unwind.
	Close()
	// Closed reports whether Close has been called. It is how Node
	// enforces the rule above on the stream the backend (or a transport
	// decorator) handed out, without wrapping it in a type of its own.
	Closed() bool
}

// StreamingTransport is an optional Transport extension for backends
// with a genuinely asynchronous AllToAllv path. Backends without it get
// the synchronous fallback from Node.OpenA2AStream, so phase code can
// target the stream API unconditionally.
type StreamingTransport interface {
	OpenA2AStream(window int) A2AStream
}

// syncA2AStream adapts a plain Transport to the stream API: Post runs
// the blocking AllToAllv immediately and queues the result for Collect.
// Phase code is SPMD, so the collective call order stays identical on
// every PE — which is what the sim backend's rendezvous requires.
type syncA2AStream struct {
	tr      Transport
	pending [][][]byte
	closed  bool
}

func (s *syncA2AStream) Post(send [][]byte) {
	s.pending = append(s.pending, s.tr.AllToAllv(send))
}

func (s *syncA2AStream) Collect() [][]byte {
	recv := s.pending[0]
	s.pending = s.pending[1:]
	return recv
}

func (s *syncA2AStream) Close() {
	for _, recv := range s.pending {
		RecycleRecv(recv)
	}
	s.pending = nil
	s.closed = true
}

func (s *syncA2AStream) Closed() bool { return s.closed }

// SyncA2AStream wraps a plain Transport in the synchronous stream
// adapter — what Node.OpenA2AStream falls back to. Transport wrappers
// that implement StreamingTransport unconditionally (so their hooks
// stay on the pipelined path) use it when their wrapped backend has no
// asynchronous path of its own.
func SyncA2AStream(tr Transport) A2AStream { return &syncA2AStream{tr: tr} }

// Node is the per-PE context handed to the program run on the machine:
// the facade phase code programs against, delegating communication to
// the backend Transport and time accounting to the backend Stats. Every
// communication call passes one entry point (op), which enforces the
// stream rule and runs the op hook fault injection sets (SetOpHook).
type Node struct {
	// Rank is this PE's index in 0..P-1.
	Rank int
	// P is the machine size.
	P int
	// Vol is the PE's local disk volume.
	Vol *blockio.Volume
	// Mem tracks the PE's internal memory budget.
	Mem *membudget.Tracker

	tr Transport
	st Stats

	// window caps the exchanges A2ARounds keeps posted (SetA2AWindow).
	window int
	// stream is the last stream OpenA2AStream handed out. Until it is
	// closed its frames share the transport's ordered per-peer channels,
	// so any other communication call would interleave with them (see
	// guard).
	stream A2AStream
	// hook, when set, sees every communication call (SetOpHook).
	hook func(op string)
}

// NewNode assembles a PE context over a backend transport and stats
// implementation; backends call it, phase code only consumes it.
func NewNode(tr Transport, st Stats, vol *blockio.Volume, mem *membudget.Tracker) *Node {
	return &Node{Rank: tr.Rank(), P: tr.P(), Vol: vol, Mem: mem, tr: tr, st: st, window: 2}
}

// Transport returns the backend transport (backend tests and
// transport wrappers).
func (n *Node) Transport() Transport { return n.tr }

// NodeStats returns the backend stats implementation (transport
// wrappers re-assemble Nodes around a wrapped Transport and need the
// original accounting to ride along).
func (n *Node) NodeStats() Stats { return n.st }

// MailboxPeakBytes reports the peak bytes ever queued undelivered in
// this PE's receive mailboxes, or 0 when the backend does not buffer
// (see MailboxStats).
func (n *Node) MailboxPeakBytes() int64 {
	if ms, ok := n.tr.(MailboxStats); ok {
		return ms.MailboxPeakBytes()
	}
	return 0
}

// SetPhase switches per-phase accounting to name.
func (n *Node) SetPhase(name string) { n.st.SetPhase(name) }

// Phase returns the current accounting phase.
func (n *Node) Phase() string { return n.st.Phase() }

// AddCPU charges modelled CPU seconds to the current phase (a no-op on
// wall-clock backends, where real computation is already measured).
func (n *Node) AddCPU(sec float64) { n.st.AddCPU(sec) }

// PhaseStats finalises and returns the PE's per-phase statistics.
func (n *Node) PhaseStats() (names []string, stats map[string]*vtime.PhaseStats) {
	return n.st.Stats()
}

// SetOpHook installs hook (nil clears it) to run on the PE goroutine
// before every communication call made through the Node, with the
// Transport method's name: once per Barrier, AllToAllv, AllGather,
// AllReduceInt64, Send and Recv, and once per exchange A2ARounds
// posts, as "AllToAllv" — never for OpenA2AStream.
// It is how fault injection (cluster/faulty) finds its trigger points,
// a position in the PE's call sequence, on any backend.
func (n *Node) SetOpHook(hook func(op string)) { n.hook = hook }

// guard fails the run when call is made between OpenA2AStream and the
// stream's Close: a frame from another call could overtake a posted
// exchange's frame still queued in the backend's sender, on the same
// ordered per-peer channel. The panic unwinds the PE program; Machine.Run
// turns it into the run's *ErrAborted.
func (n *Node) guard(call string) {
	if n.stream != nil && !n.stream.Closed() {
		panic(fmt.Errorf("cluster: rank %d: %s called while the stream from OpenA2AStream is still open — Close it first", n.Rank, call))
	}
}

// op admits a transport call: the guard, then the op hook.
func (n *Node) op(call string) {
	n.guard(call)
	if n.hook != nil {
		n.hook(call)
	}
}

// Barrier synchronises all PEs.
func (n *Node) Barrier() { n.op("Barrier"); n.tr.Barrier() }

// AllToAllv sends send[j] to PE j and returns what every PE sent to
// this one; see Transport.AllToAllv.
func (n *Node) AllToAllv(send [][]byte) [][]byte {
	n.op("AllToAllv")
	return n.tr.AllToAllv(send)
}

// OpenA2AStream opens a pipelined all-to-all stream with the given
// in-flight window (see A2AStream). Backends without an asynchronous
// path get a synchronous adapter, so callers need no fallback logic:
// the stream API is always available and always byte-identical to a
// sequence of plain AllToAllv calls. Until the stream is closed every
// other communication call on the Node — and a second OpenA2AStream —
// fails the run.
func (n *Node) OpenA2AStream(window int) A2AStream {
	n.guard("OpenA2AStream")
	n.stream = &syncA2AStream{tr: n.tr}
	if st, ok := n.tr.(StreamingTransport); ok {
		n.stream = st.OpenA2AStream(window)
	}
	return n.stream
}

// SetA2AWindow sets how many exchanges A2ARounds may keep posted at
// once: 2 pipelines exchange s+1's encode behind exchange s's transfer
// (the §IV-E double-buffered all-to-all, the default), 1 is the
// synchronous all-to-all. It is the communication half of the overlap
// switch — blockio.Volume.SetSynchronous is the I/O half.
func (n *Node) SetA2AWindow(window int) { n.window = max(window, 1) }

// A2AWindow returns the window A2ARounds uses for a sequence of rounds
// exchanges: the configured one when there is something to pipeline
// (another PE and a second round), else 1. A caller that pre-reserves
// its staging holds window+1 exchanges' worth — window posted sends
// plus the receives being consumed.
func (n *Node) A2AWindow(rounds int) int {
	if n.P == 1 {
		return 1
	}
	return max(min(n.window, rounds), 1)
}

// A2ARounds runs rounds all-to-all exchanges as one windowed pipeline:
// it opens a stream, keeps up to A2AWindow(rounds) exchanges posted —
// build(s) assembles exchange s's send vectors, always in order — hands
// each exchange's receives to consume(s, recv), which owns them
// (RecycleRecv), and closes the stream before returning, so no caller
// holds an open stream across another collective. A caller charges its
// staging to the budget itself, up front: window+1 exchanges' worth.
func (n *Node) A2ARounds(rounds int, build func(s int) [][]byte, consume func(s int, recv [][]byte) error) error {
	window := n.A2AWindow(rounds)
	st := n.OpenA2AStream(window)
	defer st.Close()
	posted := 0
	for s := 0; s < rounds; s++ {
		for ; posted < rounds && posted < s+window; posted++ {
			send := build(posted)
			if n.hook != nil {
				n.hook("AllToAllv") // what a plain AllToAllv announces
			}
			st.Post(send)
		}
		if err := consume(s, st.Collect()); err != nil {
			return err
		}
	}
	return nil
}

// AllGather collects each PE's byte slice, indexed by rank; the result
// may be shared structurally (callers must not mutate it).
func (n *Node) AllGather(data []byte) [][]byte {
	n.op("AllGather")
	return n.tr.AllGather(data)
}

// AllReduceInt64 combines every PE's value with op ("sum", "max",
// "min", "or") and returns the result to all. Any other op fails the
// run before the collective.
func (n *Node) AllReduceInt64(v int64, op string) int64 {
	if ReduceOp(op) == nil {
		panic(fmt.Errorf("cluster: rank %d: AllReduceInt64 op %q is none of sum, max, min, or", n.Rank, op))
	}
	n.op("AllReduceInt64")
	return n.tr.AllReduceInt64(v, op)
}

// reduceOps are AllReduceInt64's combine steps, by op name.
var reduceOps = map[string]func(acc, x int64) int64{
	"sum": func(acc, x int64) int64 { return acc + x },
	"max": func(acc, x int64) int64 { return max(acc, x) },
	"min": func(acc, x int64) int64 { return min(acc, x) },
	"or":  func(acc, x int64) int64 { return acc | x },
}

// ReduceOp returns the combine step backends apply for AllReduceInt64's
// op, nil for an op Node rejects.
func ReduceOp(op string) func(acc, x int64) int64 { return reduceOps[op] }

// Send transmits payload to PE dst with a tag (tcp only; the sim
// aborts the run).
func (n *Node) Send(dst, tag int, payload []byte) {
	n.op("Send")
	n.tr.Send(dst, tag, payload)
}

// Recv blocks for the next message from src with the given tag (tcp
// only; the sim aborts the run).
func (n *Node) Recv(src, tag int) []byte {
	n.op("Recv")
	return n.tr.Recv(src, tag)
}

// RecycleRecv returns AllToAllv payload buffers to the shared arena
// once their contents have been decoded. Message buffers have exactly
// one receiver, so the receiver owns them after the collective; the
// sender must not touch its send buffers after AllToAllv returns.
// Never call this on AllGather results — those may be shared
// structurally between PEs.
func RecycleRecv(bufs [][]byte) {
	for _, b := range bufs {
		bufpool.Put(b)
	}
}
