// Package sim is the simulated backend of the cluster transport plane:
// P PEs as goroutines in one process, one private address space each,
// with two deliberate parallels to the paper's MVAPICH/InfiniBand
// testbed:
//
//   - data really crosses between goroutine-private heaps, so locality
//     and communication-volume claims are measured, not assumed;
//   - every primitive synchronises the participating virtual clocks
//     and charges network time from the cost model (including fabric
//     congestion as a function of P), so phase timings reproduce the
//     shape of the paper's figures.
//
// Collectives are generation-synchronised rendezvous: all P PEs
// deposit (opName, entryTime, payload), the last arrival runs a
// compute function over the rank-ordered inputs — deterministic
// regardless of goroutine scheduling. Point-to-point messages go
// through growable per-(src,dst) mailboxes that never block the
// sender, modelling MPI's eager
// buffering: deep prefetch/overlap patterns cannot deadlock on inbox
// capacity.
package sim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"demsort/internal/blockio"
	"demsort/internal/cluster"
	"demsort/internal/membudget"
	"demsort/internal/vtime"
)

// Config describes the simulated machine.
type Config struct {
	// P is the number of PEs (cluster nodes; one PE = one node, §VI).
	P int
	// BlockBytes is the external-memory block size B in bytes.
	BlockBytes int
	// MemElems is the per-PE internal memory budget m in elements
	// (0 = untracked).
	MemElems int64
	// Model is the virtual-time cost model.
	Model vtime.CostModel
	// NewStore creates the block store backing one PE's volume; nil
	// defaults to RAM-backed stores.
	NewStore func(rank int) (blockio.Store, error)
}

// p2pDepth is the initial capacity, in messages, of each (src, dst)
// point-to-point mailbox; mailboxes grow beyond it on demand.
const p2pDepth = 64

// Machine is the simulated cluster; it implements cluster.Machine.
type Machine struct {
	cfg   Config
	nodes []*cluster.Node
	eps   []*endpoint
	rv    *rendezvous
	p2p   []*mailbox // one mailbox per (src*P+dst)

	abortOnce sync.Once
	abortFlag atomic.Bool
	abortErr  error // always *cluster.ErrAborted once set

	boxBytes atomic.Int64 // payload bytes queued undelivered across p2p mailboxes
	boxPeak  atomic.Int64 // high-water mark of boxBytes
}

// New builds a machine; Close releases the stores.
func New(cfg Config) (*Machine, error) {
	if cfg.P < 1 {
		return nil, fmt.Errorf("sim: need at least one PE, got %d", cfg.P)
	}
	if cfg.BlockBytes <= 0 {
		return nil, fmt.Errorf("sim: block size must be positive, got %d", cfg.BlockBytes)
	}
	m := &Machine{cfg: cfg}
	m.rv = newRendezvous(cfg.P, m)
	m.p2p = make([]*mailbox, cfg.P*cfg.P)
	for i := range m.p2p {
		m.p2p[i] = newMailbox(p2pDepth)
	}
	for rank := 0; rank < cfg.P; rank++ {
		var store blockio.Store
		var err error
		if cfg.NewStore != nil {
			store, err = cfg.NewStore(rank)
			if err != nil {
				return nil, err
			}
		} else {
			store = blockio.NewMemStore()
		}
		clock := vtime.NewClock()
		ep := &endpoint{m: m, rank: rank, clock: clock}
		m.eps = append(m.eps, ep)
		m.nodes = append(m.nodes, cluster.NewNode(
			ep,
			clock, // *vtime.Clock satisfies cluster.Stats
			blockio.NewVolume(store, cfg.BlockBytes, rank, cfg.Model, clock),
			membudget.New(cfg.MemElems),
		))
	}
	return m, nil
}

// Close releases the per-PE stores.
func (m *Machine) Close() error {
	var first error
	for _, n := range m.nodes {
		if err := n.Vol.Store().Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Nodes returns the PE contexts (for post-run stats inspection).
func (m *Machine) Nodes() []*cluster.Node { return m.nodes }

// P returns the machine size.
func (m *Machine) P() int { return m.cfg.P }

// abort is panicked through PE goroutines when any PE fails, so peers
// blocked in collectives unwind instead of deadlocking.
type abort struct{}

// Run executes fn on every PE concurrently and returns the first
// error. If a PE fails, the others are unblocked and unwound.
func (m *Machine) Run(fn func(*cluster.Node) error) error {
	var wg sync.WaitGroup
	for _, n := range m.nodes {
		wg.Add(1)
		go func(n *cluster.Node) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, isAbort := r.(abort); isAbort {
						return // unwound because a peer failed
					}
					m.fail(cluster.Abortedf(n.Rank, "sim: PE %d panicked: %v", n.Rank, r))
				}
			}()
			if err := fn(n); err != nil {
				m.fail(cluster.AsAborted(n.Rank, fmt.Errorf("PE %d: %w", n.Rank, err)))
			}
		}(n)
	}
	wg.Wait()
	return m.abortErr
}

// Abort implements cluster.Machine: external job-level cancellation —
// every blocked PE unwinds and Run returns *cluster.ErrAborted with
// Rank cluster.JobRank.
func (m *Machine) Abort(cause error) {
	m.fail(&cluster.ErrAborted{Rank: cluster.JobRank, Cause: cause})
}

// fail records the first failure — wrapped as *cluster.ErrAborted, the
// first attribution winning — and wakes every PE blocked in a
// collective or a p2p receive. abortErr is guarded by the rendezvous
// mutex: aborted() is only called with it held, and Run reads the
// error only after all PE goroutines have joined. Callers pass an
// already-attributed *ErrAborted when they know the culprit rank;
// plain errors are attributed to no PE in particular (JobRank).
func (m *Machine) fail(err error) {
	m.abortOnce.Do(func() {
		ae := cluster.AsAborted(cluster.JobRank, err)
		m.rv.mu.Lock()
		m.abortErr = ae
		m.abortFlag.Store(true)
		m.rv.cond.Broadcast()
		m.rv.mu.Unlock()
		for _, box := range m.p2p {
			box.wake()
		}
	})
}

// aborted must be called with rv.mu held.
func (m *Machine) aborted() bool { return m.abortErr != nil }

// ---------------------------------------------------------------------
// Point-to-point mailboxes: unbounded FIFO rings. Send never blocks (MPI
// eager buffering — a bounded inbox deadlocks two PEs that fill each
// other's before either drains), only Recv waits, and an abort wakes all
// waiters.
// ---------------------------------------------------------------------

type message struct {
	tag     int
	payload []byte
	arrival float64
}

type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	buf  []message // ring
	head int
	n    int
}

func newMailbox(capacity int) *mailbox {
	b := &mailbox{buf: make([]message, capacity)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// push enqueues without ever blocking, growing the ring as needed.
func (b *mailbox) push(msg message) {
	b.mu.Lock()
	if b.n == len(b.buf) {
		grown := make([]message, 2*len(b.buf)+1)
		for i := 0; i < b.n; i++ {
			grown[i] = b.buf[(b.head+i)%len(b.buf)]
		}
		b.buf = grown
		b.head = 0
	}
	b.buf[(b.head+b.n)%len(b.buf)] = msg
	b.n++
	b.cond.Signal()
	b.mu.Unlock()
}

// pop dequeues, blocking until a message arrives or the machine
// aborts; ok is false on abort.
func (b *mailbox) pop(m *Machine) (message, bool) {
	b.mu.Lock()
	for b.n == 0 && !m.abortFlag.Load() {
		b.cond.Wait()
	}
	if b.n == 0 {
		b.mu.Unlock()
		return message{}, false
	}
	msg := b.buf[b.head]
	b.buf[b.head] = message{}
	b.head = (b.head + 1) % len(b.buf)
	b.n--
	b.mu.Unlock()
	return msg, true
}

// wake unblocks all waiters (abort path).
func (b *mailbox) wake() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// ---------------------------------------------------------------------
// Rendezvous: generation-synchronised collectives.
// ---------------------------------------------------------------------

type collIn struct {
	op   string
	t    float64
	data any
}

type collOut struct {
	t    float64
	data any
	net  float64 // network seconds to charge
	msgs int64
	sent int64
	recv int64
}

type rendezvous struct {
	mu      sync.Mutex
	cond    *sync.Cond
	p       int
	m       *Machine
	arrived int
	gen     uint64
	ins     []collIn
	outs    []collOut
}

func newRendezvous(p int, m *Machine) *rendezvous {
	rv := &rendezvous{p: p, m: m, ins: make([]collIn, p), outs: make([]collOut, p)}
	rv.cond = sync.NewCond(&rv.mu)
	return rv
}

// do performs one collective step for rank. compute receives the
// rank-ordered inputs and must fill outs.
func (rv *rendezvous) do(rank int, op string, t float64, data any, compute func(ins []collIn, outs []collOut)) collOut {
	rv.mu.Lock()
	if rv.m.aborted() {
		rv.mu.Unlock()
		panic(abort{})
	}
	rv.ins[rank] = collIn{op: op, t: t, data: data}
	rv.arrived++
	if rv.arrived == rv.p {
		for i := range rv.ins {
			if rv.ins[i].op != op {
				rv.mu.Unlock()
				rv.m.fail(cluster.Abortedf(i, "sim: collective mismatch: PE %d in %q, PE %d in %q",
					i, rv.ins[i].op, rank, op))
				panic(abort{})
			}
		}
		compute(rv.ins, rv.outs)
		rv.arrived = 0
		for i := range rv.ins {
			rv.ins[i] = collIn{}
		}
		rv.gen++
		out := rv.outs[rank]
		rv.cond.Broadcast()
		rv.mu.Unlock()
		return out
	}
	gen := rv.gen
	for rv.gen == gen && !rv.m.aborted() {
		rv.cond.Wait()
	}
	if rv.m.aborted() {
		rv.mu.Unlock()
		panic(abort{})
	}
	out := rv.outs[rank]
	rv.mu.Unlock()
	return out
}

// maxEntry returns the latest entry time among the inputs — collectives
// complete no earlier than the last participant arrives.
func maxEntry(ins []collIn) float64 {
	t := math.Inf(-1)
	for i := range ins {
		t = max(t, ins[i].t)
	}
	return t
}

// latencyTerm is the per-collective startup cost: a tree of messages.
func (m *Machine) latencyTerm() float64 {
	p := float64(m.cfg.P)
	return m.cfg.Model.NetLatency * math.Ceil(math.Log2(p)+1)
}

// ---------------------------------------------------------------------
// endpoint: the per-PE cluster.Transport implementation.
// ---------------------------------------------------------------------

type endpoint struct {
	m     *Machine
	rank  int
	clock *vtime.Clock
}

// Rank implements cluster.Transport.
func (e *endpoint) Rank() int { return e.rank }

// P implements cluster.Transport.
func (e *endpoint) P() int { return e.m.cfg.P }

// charge applies a collective result to the PE's clock. The forced
// clock jump — from this PE's entry time to the collective's completion
// — is the time it sat blocked waiting for stragglers and the wire, so
// it is charged as blocked time (overlapped transfers that complete
// before the PE arrives jump nothing and charge nothing).
func (e *endpoint) charge(out collOut) {
	entry := e.clock.Now()
	e.clock.AdvanceTo(out.t)
	st := e.clock.Cur()
	if out.t > entry {
		st.BlockedTime += out.t - entry
	}
	st.NetTime += out.net
	st.Messages += out.msgs
	st.BytesSent += out.sent
	st.BytesRecv += out.recv
}

// Barrier implements cluster.Transport.
func (e *endpoint) Barrier() {
	out := e.m.rv.do(e.rank, "barrier", e.clock.Now(), nil, func(ins []collIn, outs []collOut) {
		t := maxEntry(ins) + e.m.latencyTerm()
		for i := range outs {
			outs[i] = collOut{t: t}
		}
	})
	e.charge(out)
}

// AllToAllv implements cluster.Transport.
func (e *endpoint) AllToAllv(send [][]byte) [][]byte {
	if len(send) != e.m.cfg.P {
		panic(fmt.Sprintf("sim: AllToAllv needs %d destination slots, got %d", e.m.cfg.P, len(send)))
	}
	out := e.m.rv.do(e.rank, "alltoallv", e.clock.Now(), send, func(ins []collIn, outs []collOut) {
		p := e.m.cfg.P
		t0 := maxEntry(ins)
		bw := e.m.cfg.Model.EffNetBandwidth(p)
		lat := e.m.latencyTerm()
		// Route and cost per PE: time is governed by the max of bytes
		// in and bytes out on its NIC (full-duplex would be min; we
		// follow the paper's single-rail measurement and use max).
		for i := 0; i < p; i++ {
			recv := make([][]byte, p)
			var bytesIn, bytesOut int64
			var msgs int64
			for j := 0; j < p; j++ {
				sendJ := ins[j].data.([][]byte)
				recv[j] = sendJ[i]
				if i != j && len(sendJ[i]) > 0 {
					bytesIn += int64(len(sendJ[i]))
					msgs++
				}
			}
			sendI := ins[i].data.([][]byte)
			for j := 0; j < p; j++ {
				if j != i {
					bytesOut += int64(len(sendI[j]))
				}
			}
			vol := bytesIn
			vol = max(vol, bytesOut)
			net := float64(vol)/bw + lat
			outs[i] = collOut{
				t:    t0 + net,
				data: recv,
				net:  net,
				msgs: msgs,
				sent: bytesOut,
				recv: bytesIn,
			}
		}
	})
	e.charge(out)
	return out.data.([][]byte)
}

// AllGather implements cluster.Transport.
func (e *endpoint) AllGather(data []byte) [][]byte {
	out := e.m.rv.do(e.rank, "allgather", e.clock.Now(), data, func(ins []collIn, outs []collOut) {
		p := e.m.cfg.P
		t0 := maxEntry(ins)
		bw := e.m.cfg.Model.EffNetBandwidth(p)
		lat := e.m.latencyTerm()
		all := make([][]byte, p)
		var total int64
		for j := 0; j < p; j++ {
			all[j] = ins[j].data.([]byte)
			total += int64(len(all[j]))
		}
		for i := 0; i < p; i++ {
			in := total - int64(len(all[i]))
			net := float64(in)/bw + lat
			outs[i] = collOut{t: t0 + net, data: all, net: net, msgs: int64(p - 1), sent: int64(len(all[i])) * int64(p-1), recv: in}
		}
	})
	e.charge(out)
	return out.data.([][]byte)
}

// Bcast implements cluster.Transport.
func (e *endpoint) Bcast(root int, data []byte) []byte {
	out := e.m.rv.do(e.rank, "bcast", e.clock.Now(), data, func(ins []collIn, outs []collOut) {
		p := e.m.cfg.P
		t0 := maxEntry(ins)
		bw := e.m.cfg.Model.EffNetBandwidth(p)
		lat := e.m.latencyTerm()
		payload := ins[root].data.([]byte)
		net := float64(len(payload))/bw + lat
		for i := 0; i < p; i++ {
			o := collOut{t: t0 + net, data: payload, net: net}
			if i != root {
				o.recv = int64(len(payload))
				o.msgs = 1
			} else {
				o.sent = int64(len(payload))
			}
			outs[i] = o
		}
	})
	e.charge(out)
	return out.data.([]byte)
}

// AllReduceInt64 implements cluster.Transport.
func (e *endpoint) AllReduceInt64(v int64, op string) int64 {
	out := e.m.rv.do(e.rank, "allreduce:"+op, e.clock.Now(), v, func(ins []collIn, outs []collOut) {
		t := maxEntry(ins) + e.m.latencyTerm()
		acc := ins[0].data.(int64)
		for j := 1; j < len(ins); j++ {
			x := ins[j].data.(int64)
			switch op {
			case "sum":
				acc += x
			case "max":
				acc = max(acc, x)
			case "min":
				acc = min(acc, x)
			case "or":
				acc |= x
			default:
				panic("sim: unknown reduce op " + op)
			}
		}
		for i := range outs {
			outs[i] = collOut{t: t, data: acc, net: e.m.latencyTerm(), msgs: 1}
		}
	})
	e.charge(out)
	return out.data.(int64)
}

// ExchangeAny implements cluster.Transport.
func (e *endpoint) ExchangeAny(items []any, nominalBytes int) []any {
	if len(items) != e.m.cfg.P {
		panic("sim: ExchangeAny needs P items")
	}
	out := e.m.rv.do(e.rank, "exchangeany", e.clock.Now(), items, func(ins []collIn, outs []collOut) {
		p := e.m.cfg.P
		t0 := maxEntry(ins)
		bw := e.m.cfg.Model.EffNetBandwidth(p)
		lat := e.m.latencyTerm()
		for i := 0; i < p; i++ {
			recv := make([]any, p)
			for j := 0; j < p; j++ {
				recv[j] = ins[j].data.([]any)[i]
			}
			net := float64((p-1)*nominalBytes)/bw + lat
			outs[i] = collOut{t: t0 + net, data: recv, net: net, msgs: int64(p - 1)}
		}
	})
	e.charge(out)
	return out.data.([]any)
}

// Send implements cluster.Transport: the NIC cost is charged and the
// arrival time stamped so the receiver's clock synchronises. Send
// never blocks (mailboxes grow on demand).
func (e *endpoint) Send(dst, tag int, payload []byte) {
	model := e.m.cfg.Model
	dur := float64(len(payload)) / model.EffNetBandwidth(e.m.cfg.P)
	st := e.clock.Cur()
	st.NetTime += dur
	st.BytesSent += int64(len(payload))
	arrival := e.clock.Now() + dur + model.NetLatency
	e.m.p2p[e.rank*e.m.cfg.P+dst].push(message{tag: tag, payload: payload, arrival: arrival})
	total := e.m.boxBytes.Add(int64(len(payload)))
	for {
		peak := e.m.boxPeak.Load()
		if total <= peak || e.m.boxPeak.CompareAndSwap(peak, total) {
			break
		}
	}
}

// Recv implements cluster.Transport, advancing this PE's clock to the
// message's arrival time.
func (e *endpoint) Recv(src, tag int) []byte {
	msg, ok := e.m.p2p[src*e.m.cfg.P+e.rank].pop(e.m)
	if !ok {
		panic(abort{}) // machine failed while we were blocked
	}
	if msg.tag != tag {
		e.m.fail(cluster.Abortedf(e.rank, "sim: PE %d expected tag %d from %d, got %d", e.rank, tag, src, msg.tag))
		panic(abort{})
	}
	e.m.boxBytes.Add(-int64(len(msg.payload)))
	entry := e.clock.Now()
	e.clock.AdvanceTo(msg.arrival)
	st := e.clock.Cur()
	if msg.arrival > entry {
		st.BlockedTime += msg.arrival - entry
	}
	st.BytesRecv += int64(len(msg.payload))
	// Count the message on the receive side, matching the collectives
	// (AllToAllv/AllGather/Bcast all count incoming messages only);
	// Send deliberately does not count, or every p2p message would be
	// double-counted relative to collective traffic.
	st.Messages++
	return msg.payload
}

// MailboxPeakBytes implements cluster.MailboxStats: the machine-wide
// high-water mark of payload bytes queued undelivered in the p2p
// mailboxes (the eager-buffering memory a real receiver would hold;
// one shared figure, since all PEs live in one address space here).
func (e *endpoint) MailboxPeakBytes() int64 { return e.m.boxPeak.Load() }

// Interface conformance.
var (
	_ cluster.Machine      = (*Machine)(nil)
	_ cluster.Transport    = (*endpoint)(nil)
	_ cluster.MailboxStats = (*endpoint)(nil)
	_ cluster.Stats        = (*vtime.Clock)(nil)
)
