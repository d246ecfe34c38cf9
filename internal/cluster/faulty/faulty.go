// Package faulty is the deterministic chaos layer of the transport
// plane: a cluster.Machine wrapper that injects failures — delays,
// crashes, process death, wedges, dropped connections — at exact,
// reproducible points (the Nth matching transport call of a given op
// in a given phase, on a given rank). It wraps either backend, so the
// failure plane built into tcp (heartbeats, per-op deadlines, abort
// fan-out) and the abort semantics of sim are exercised by table-driven
// tests instead of one-off environment-variable hacks.
//
// Faults trigger from the PE's own program goroutine, through the op
// hook every communication call of a cluster.Node passes
// (Node.SetOpHook), which is what makes them deterministic: the trigger
// point is a position in the PE's call sequence, not a timer race. The
// seeded RNG only parameterises delay durations.
//
// Backend-specific sharp edges (abrupt socket teardown, stopped
// heartbeats, a severed link) are reached through optional interfaces
// the tcp backend implements (Kill, Wedge, DropPeer); on backends
// without them the fault degrades to its process-level effect (a crash
// is a panic either way).
package faulty

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"demsort/internal/cluster"
)

// Action is the kind of failure a Fault injects.
type Action string

const (
	// Delay sleeps a seeded-random duration in [MaxDelay/2, MaxDelay]
	// before the op — jitter without failure, for schedule-perturbation
	// tests.
	Delay Action = "delay"
	// Crash kills the rank in-process: the backend's Kill (abrupt
	// socket teardown, no goodbye, no abort broadcast — exactly a
	// SIGKILLed worker as seen by the peers) followed by a panic that
	// unwinds the PE program.
	Crash Action = "crash"
	// Die exits the whole process (status 11) — the real-fleet form of
	// Crash, for launcher-level tests where the rank is its own OS
	// process.
	Die Action = "die"
	// Wedge stops the rank's heartbeats (if the backend has them) and
	// parks the PE program: alive at the OS level, making no progress
	// — the failure mode only liveness detection can catch. The parked
	// program resumes on Release/Close and then unwinds through the
	// backend's abort path.
	Wedge Action = "wedge"
	// DropConn abruptly severs the connection to Peer (both ends see a
	// lost link mid-protocol).
	DropConn Action = "dropconn"
)

// Fault is one injection point.
type Fault struct {
	// Rank is the PE the fault lives on.
	Rank int
	// Action is what happens.
	Action Action
	// Op filters on the Transport method name, one of KnownOps; empty
	// matches any op.
	Op string
	// Phase filters on the PE's accounting phase at call time (e.g.
	// "all-to-all", "multiway selection"); empty matches any phase.
	Phase string
	// Call is the 1-based index of the matching call that triggers
	// (0 means the first). Delay triggers on every matching call from
	// Call onward; the other actions trigger once.
	Call int
	// Peer is the target rank for DropConn.
	Peer int
	// MaxDelay bounds Delay sleeps (0 means 10ms).
	MaxDelay time.Duration
}

func (f Fault) String() string {
	s := fmt.Sprintf("rank=%d,action=%s", f.Rank, f.Action)
	if f.Op != "" {
		s += ",op=" + f.Op
	}
	if f.Phase != "" {
		s += ",phase=" + strings.ReplaceAll(f.Phase, " ", "_")
	}
	if f.Call > 0 {
		s += fmt.Sprintf(",call=%d", f.Call)
	}
	if f.Action == DropConn {
		s += fmt.Sprintf(",peer=%d", f.Peer)
	}
	if f.MaxDelay > 0 {
		s += ",maxdelay=" + f.MaxDelay.String()
	}
	return s
}

// KnownOps lists the Transport methods a Fault's Op can intercept —
// the ops cluster.Node announces to its op hook, the complete trigger
// surface of this package. Only tcp carries Send and Recv; the sim
// aborts any run that calls them.
var KnownOps = []string{"Barrier", "AllToAllv", "AllGather", "AllReduceInt64", "Send", "Recv"}

// KnownPhases lists every phase name the sorters announce via
// SetPhase — the values a Fault's Phase can match. A spec naming an
// unknown phase would silently never fire, so ParseSpec rejects it.
var KnownPhases = []string{
	// core (CANONICALMERGESORT)
	"load", "run formation", "multiway selection", "all-to-all",
	"final merge", "collect",
	// stripesort
	"merge",
	// baseline (NOW-Sort)
	"sampling", "distribute", "local external sort",
}

func known(val string, set []string) bool {
	for _, s := range set {
		if s == val {
			return true
		}
	}
	return false
}

// ParseSpec parses a fault list from its flag form: faults separated
// by ';', fields by ',', each field key=value — e.g.
//
//	rank=2,action=die,op=AllToAllv,phase=all-to-all;rank=0,action=delay,maxdelay=5ms
//
// No spaces (argv is split on them): a phase reads '_' as a space
// (phase=final_merge), as String writes it. Actions, ops and phases are
// validated against the known sets here, at parse time: a typo'd
// trigger would otherwise be discovered only by never firing.
func ParseSpec(spec string) ([]Fault, error) {
	var faults []Fault
	for _, one := range strings.Split(spec, ";") {
		one = strings.TrimSpace(one)
		if one == "" {
			continue
		}
		f := Fault{Rank: -1}
		for _, kv := range strings.Split(one, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("faulty: field %q is not key=value in %q", kv, one)
			}
			var err error
			switch key {
			case "rank":
				f.Rank, err = strconv.Atoi(val)
			case "action":
				f.Action = Action(val)
				switch f.Action {
				case Delay, Crash, Die, Wedge, DropConn:
				default:
					err = fmt.Errorf("unknown action %q", val)
				}
			case "op":
				f.Op = val
				if !known(val, KnownOps) {
					err = fmt.Errorf("unknown op %q (known: %s)", val, strings.Join(KnownOps, ", "))
				}
			case "phase":
				f.Phase = strings.ReplaceAll(val, "_", " ")
				if !known(f.Phase, KnownPhases) {
					err = fmt.Errorf("unknown phase %q (known: %s; write a space as _)", val, strings.Join(KnownPhases, ", "))
				}
			case "call":
				f.Call, err = strconv.Atoi(val)
			case "peer":
				f.Peer, err = strconv.Atoi(val)
			case "maxdelay":
				f.MaxDelay, err = time.ParseDuration(val)
			default:
				err = fmt.Errorf("unknown key %q", key)
			}
			if err != nil {
				return nil, fmt.Errorf("faulty: %q: %v", one, err)
			}
		}
		if f.Rank < 0 {
			return nil, fmt.Errorf("faulty: %q needs rank=", one)
		}
		if f.Action == "" {
			return nil, fmt.Errorf("faulty: %q needs action=", one)
		}
		faults = append(faults, f)
	}
	return faults, nil
}

// Optional backend hooks (the tcp backend implements all three).
type killer interface{ Kill() }
type wedger interface{ Wedge() }
type connDropper interface{ DropPeer(rank int) }

// Machine wraps a backend machine, injecting the configured faults
// into the communication calls of the PEs it hosts. It implements
// cluster.Machine and delegates everything else.
type Machine struct {
	inner  cluster.Machine
	seed   uint64
	faults []Fault

	release     chan struct{}
	releaseOnce sync.Once
}

// Wrap builds a fault-injecting machine over inner. seed drives delay
// durations only — trigger points are positional and exact.
func Wrap(inner cluster.Machine, seed uint64, faults ...Fault) *Machine {
	return &Machine{inner: inner, seed: seed, faults: faults, release: make(chan struct{})}
}

// Release un-parks every PE wedged by a Wedge fault (test cleanup);
// the resumed programs unwind through the backend's abort path.
func (m *Machine) Release() {
	m.releaseOnce.Do(func() { close(m.release) })
}

// Run implements cluster.Machine: each locally hosted PE runs fn with
// this rank's faults checked before every communication call, as the
// backend Node's op hook — installed for the run, cleared on return.
func (m *Machine) Run(fn func(*cluster.Node) error) error {
	return m.inner.Run(func(n *cluster.Node) error {
		pf := &peFaults{n: n, m: m, rng: rand.New(rand.NewSource(int64(m.seed ^ uint64(n.Rank)*0x9e3779b97f4a7c15)))}
		for _, f := range m.faults {
			if f.Rank == n.Rank {
				pf.faults = append(pf.faults, &armed{Fault: f})
			}
		}
		n.SetOpHook(pf.before)
		defer n.SetOpHook(nil)
		return fn(n)
	})
}

// Nodes implements cluster.Machine.
func (m *Machine) Nodes() []*cluster.Node { return m.inner.Nodes() }

// P implements cluster.Machine.
func (m *Machine) P() int { return m.inner.P() }

// Abort implements cluster.Machine.
func (m *Machine) Abort(cause error) { m.inner.Abort(cause) }

// Close implements cluster.Machine (and releases any wedged PE first,
// so its goroutine can unwind).
func (m *Machine) Close() error {
	m.Release()
	return m.inner.Close()
}

// armed is one fault plus its per-PE trigger state.
type armed struct {
	Fault
	seen  int  // matching calls so far
	fired bool // one-shot actions already taken
}

// peFaults is one PE's armed faults.
type peFaults struct {
	n      *cluster.Node
	m      *Machine
	faults []*armed
	rng    *rand.Rand
}

// before runs the fault check for one op on the PE's own goroutine.
func (pf *peFaults) before(op string) {
	for _, f := range pf.faults {
		if f.fired {
			continue
		}
		if f.Op != "" && f.Op != op {
			continue
		}
		if f.Phase != "" && f.Phase != pf.n.Phase() {
			continue
		}
		f.seen++
		if f.seen < max(f.Call, 1) {
			continue
		}
		switch f.Action {
		case Delay:
			max := f.MaxDelay
			if max <= 0 {
				max = 10 * time.Millisecond
			}
			time.Sleep(max/2 + time.Duration(pf.rng.Int63n(int64(max/2)+1)))
		case Crash:
			f.fired = true
			if k, ok := pf.m.inner.(killer); ok {
				k.Kill()
			}
			panic(fmt.Sprintf("faulty: injected crash on rank %d (%s)", pf.n.Rank, f.Fault))
		case Die:
			f.fired = true
			fmt.Fprintf(os.Stderr, "faulty: injected death of rank %d (%s)\n", pf.n.Rank, f.Fault)
			os.Exit(11)
		case Wedge:
			f.fired = true
			if w, ok := pf.m.inner.(wedger); ok {
				w.Wedge()
			}
			<-pf.m.release
		case DropConn:
			f.fired = true
			if d, ok := pf.m.inner.(connDropper); ok {
				d.DropPeer(f.Peer)
			}
		}
	}
}

var _ cluster.Machine = (*Machine)(nil)
