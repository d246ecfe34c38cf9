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
// regardless of goroutine scheduling. The sim implements only the
// collectives the sorters call; Transport's Bcast, ExchangeAny, Send
// and Recv abort the run, attributed to the calling PE.
package sim

import (
	"fmt"
	"math"
	"sync"

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

// Machine is the simulated cluster; it implements cluster.Machine.
type Machine struct {
	cfg   Config
	nodes []*cluster.Node
	eps   []*endpoint
	rv    *rendezvous

	abortOnce sync.Once
	abortErr  error // always *cluster.ErrAborted once set
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
				switch r := recover().(type) {
				case nil, abort: // done, or unwound because a peer failed
				case *cluster.ErrAborted: // attributed by the rendezvous or a refusal
					m.fail(r)
				default:
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
// collective. abortErr is guarded by the rendezvous mutex: aborted() is
// only called with it held, and Run reads the error only after all PE
// goroutines have joined. Callers pass an already-attributed
// *ErrAborted when they know the culprit rank; plain errors are
// attributed to no PE in particular (JobRank).
func (m *Machine) fail(err error) {
	m.abortOnce.Do(func() {
		ae := cluster.AsAborted(cluster.JobRank, err)
		m.rv.mu.Lock()
		m.abortErr = ae
		m.rv.cond.Broadcast()
		m.rv.mu.Unlock()
	})
}

// aborted must be called with rv.mu held.
func (m *Machine) aborted() bool { return m.abortErr != nil }

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
// rank-ordered inputs and must fill outs. The lock is released on
// every exit, a panicking compute included, so the PE's recover can
// fail the machine.
func (rv *rendezvous) do(rank int, op string, t float64, data any, compute func(ins []collIn, outs []collOut)) collOut {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if rv.m.aborted() {
		panic(abort{})
	}
	rv.ins[rank] = collIn{op: op, t: t, data: data}
	rv.arrived++
	if rv.arrived == rv.p {
		for i := range rv.ins {
			if rv.ins[i].op != op {
				panic(cluster.Abortedf(i, "sim: collective mismatch: PE %d in %q, PE %d in %q",
					i, rv.ins[i].op, rank, op))
			}
		}
		compute(rv.ins, rv.outs)
		rv.arrived = 0
		for i := range rv.ins {
			rv.ins[i] = collIn{}
		}
		rv.gen++
		rv.cond.Broadcast()
		return rv.outs[rank]
	}
	gen := rv.gen
	for rv.gen == gen && !rv.m.aborted() {
		rv.cond.Wait()
	}
	if rv.m.aborted() {
		panic(abort{})
	}
	return rv.outs[rank]
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

// AllReduceInt64 implements cluster.Transport.
func (e *endpoint) AllReduceInt64(v int64, op string) int64 {
	out := e.m.rv.do(e.rank, "allreduce:"+op, e.clock.Now(), v, func(ins []collIn, outs []collOut) {
		t := maxEntry(ins) + e.m.latencyTerm()
		reduce, acc := cluster.ReduceOp(op), ins[0].data.(int64)
		for j := 1; j < len(ins); j++ {
			acc = reduce(acc, ins[j].data.(int64))
		}
		for i := range outs {
			outs[i] = collOut{t: t, data: acc, net: e.m.latencyTerm(), msgs: 1}
		}
	})
	e.charge(out)
	return out.data.(int64)
}

// Bcast, ExchangeAny, Send and Recv complete cluster.Transport; no
// sorter calls them, so on the sim each aborts the run, attributed to
// the calling PE (Run recovers the panic into its *ErrAborted).
func (e *endpoint) Bcast(int, []byte) []byte     { panic(e.refuse("Bcast")) }
func (e *endpoint) ExchangeAny([]any, int) []any { panic(e.refuse("ExchangeAny")) }
func (e *endpoint) Send(int, int, []byte)        { panic(e.refuse("Send")) }
func (e *endpoint) Recv(int, int) []byte         { panic(e.refuse("Recv")) }

func (e *endpoint) refuse(op string) *cluster.ErrAborted {
	return cluster.Abortedf(e.rank, "sim: PE %d called %s, which the simulator does not provide", e.rank, op)
}

// Interface conformance.
var (
	_ cluster.Machine   = (*Machine)(nil)
	_ cluster.Transport = (*endpoint)(nil)
	_ cluster.Stats     = (*vtime.Clock)(nil)
)
