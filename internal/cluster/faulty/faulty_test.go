package faulty_test

// The chaos matrix of the failure plane: deterministic fault injection
// over real tcp machines running the full sort, asserting the whole
// fleet unwinds in bounded time with correct blame and no published
// partition files — plus the spec parser and the cheaper actions on
// the sim backend.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"demsort/internal/baseline"
	"demsort/internal/blockio"
	"demsort/internal/cluster"
	"demsort/internal/cluster/faulty"
	"demsort/internal/cluster/sim"
	"demsort/internal/cluster/tcp"
	"demsort/internal/core"
	"demsort/internal/elem"
	"demsort/internal/job"
	"demsort/internal/sortbench"
	"demsort/internal/stripesort"
)

const (
	seed  = 42
	nPer  = 2000
	block = 1024
	mem   = 8192
)

func TestParseSpecRoundTrip(t *testing.T) {
	faults := []faulty.Fault{
		{Rank: 2, Action: faulty.Die, Op: "AllToAllv", Phase: "all-to-all"},
		{Rank: 0, Action: faulty.Delay, MaxDelay: 5 * time.Millisecond},
		{Rank: 1, Action: faulty.Wedge, Phase: "collect", Call: 3},
		{Rank: 3, Action: faulty.DropConn, Peer: 1},
		{Rank: 0, Action: faulty.Crash, Op: "Barrier"},
		{Rank: 1, Action: faulty.Die, Op: "Barrier", Phase: "final merge"},
	}
	var specs []string
	for _, f := range faults {
		specs = append(specs, f.String())
	}
	spec := strings.Join(specs, ";")
	if strings.Contains(spec, " ") {
		t.Fatalf("spec %q contains spaces — the launcher splits worker argv on them", spec)
	}
	parsed, err := faulty.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(faults) {
		t.Fatalf("parsed %d faults, want %d", len(parsed), len(faults))
	}
	for i := range faults {
		if parsed[i] != faults[i] {
			t.Fatalf("fault %d did not round-trip: %+v vs %+v", i, parsed[i], faults[i])
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"action=die",                      // no rank
		"rank=1",                          // no action
		"rank=1,action=meteorstrike",      // unknown action
		"rank=1,action=die,when=later",    // unknown key
		"rank=1,action=die,notakeyvalue",  // not key=value
		"rank=x,action=die",               // bad int
		"rank=1,action=delay,maxdelay=5x", // bad duration
		"rank=1,action=die,op=Telepathy",  // unknown transport op
		"rank=1,action=die,phase=warp",    // unknown sort phase
	} {
		if _, err := faulty.ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted a malformed spec", spec)
		}
	}
	// A typoed op/phase must tell the user what IS valid.
	if _, err := faulty.ParseSpec("rank=1,action=die,op=Telepathy"); err == nil ||
		!strings.Contains(err.Error(), "AllToAllv") {
		t.Errorf("op error does not list the known ops: %v", err)
	}
	if _, err := faulty.ParseSpec("rank=1,action=die,phase=warp"); err == nil ||
		!strings.Contains(err.Error(), "multiway selection") || !strings.Contains(err.Error(), "space as _") {
		t.Errorf("phase error does not list the known phases and the _ spelling: %v", err)
	}
}

// Every advertised op and phase must actually parse — the validation
// lists are the injector's user contract.
func TestParseSpecKnownSetsAccepted(t *testing.T) {
	for _, op := range faulty.KnownOps {
		if _, err := faulty.ParseSpec("rank=0,action=die,op=" + op); err != nil {
			t.Errorf("known op %q rejected: %v", op, err)
		}
	}
	for _, ph := range faulty.KnownPhases {
		if _, err := faulty.ParseSpec("rank=0,action=die,phase=" + ph); err != nil {
			t.Errorf("known phase %q rejected: %v", ph, err)
		}
	}
}

// TestKnownPhasesMatchSorters pins KnownPhases to the sorters' own
// phase names: a renamed phase fails here instead of leaving a
// -fault phase= spec that never fires.
func TestKnownPhasesMatchSorters(t *testing.T) {
	announced := append(core.Phases(), job.PhaseLoad, job.PhaseCollect,
		stripesort.PhaseRunForm, stripesort.PhaseMerge,
		baseline.PhaseSample, baseline.PhaseDistribute, baseline.PhaseLocalSort)
	want := map[string]bool{}
	for _, ph := range announced {
		want[ph] = true
	}
	got := map[string]bool{}
	for _, ph := range faulty.KnownPhases {
		got[ph] = true
	}
	if !reflect.DeepEqual(got, want) || len(got) != len(faulty.KnownPhases) {
		t.Fatalf("KnownPhases = %q, the sorters announce %q", faulty.KnownPhases, announced)
	}
}

// TestCrashOnSimBackend: without backend hooks a Crash degrades to a
// panic, which the sim backend must convert into a typed abort naming
// the crashed PE.
func TestCrashOnSimBackend(t *testing.T) {
	sm, err := sim.New(sim.Config{P: 4, BlockBytes: block, MemElems: mem})
	if err != nil {
		t.Fatal(err)
	}
	m := faulty.Wrap(sm, seed, faulty.Fault{Rank: 2, Action: faulty.Crash, Op: "AllToAllv", Phase: core.PhaseExchange})
	defer m.Close()
	cfg := core.DefaultConfig(4, mem, block)
	cfg.Seed = seed
	cfg.Machine = m
	cfg.KeepOutput = false
	cfg.Source = recSource
	cfg.Sink = func(int, []byte) error { return nil }
	_, err = core.Sort[elem.Rec100](elem.Rec100Codec{}, cfg, nil)
	var ae *cluster.ErrAborted
	if !errors.As(err, &ae) || ae.Rank != 2 {
		t.Fatalf("sim crash returned %v, want *cluster.ErrAborted naming rank 2", err)
	}
}

// TestDelayPerturbsNothing: Delay must jitter the schedule without
// changing a byte of output — and identically across runs with the
// same seed (determinism of the injected sleeps is the whole point).
func TestDelayPerturbsNothing(t *testing.T) {
	run := func(withFault bool) [][]byte {
		sm, err := sim.New(sim.Config{P: 4, BlockBytes: block, MemElems: mem})
		if err != nil {
			t.Fatal(err)
		}
		var m cluster.Machine = sm
		if withFault {
			m = faulty.Wrap(sm, seed, faulty.Fault{Rank: 1, Action: faulty.Delay, Op: "AllToAllv", MaxDelay: 2 * time.Millisecond})
		}
		defer m.Close()
		cfg := core.DefaultConfig(4, mem, block)
		cfg.Seed = seed
		cfg.Machine = m
		cfg.KeepOutput = false
		cfg.Source = recSource
		out := make([][]byte, 4)
		var mu sync.Mutex
		cfg.Sink = func(r int, b []byte) error {
			mu.Lock()
			out[r] = append(out[r], b...)
			mu.Unlock()
			return nil
		}
		if _, err := core.Sort[elem.Rec100](elem.Rec100Codec{}, cfg, nil); err != nil {
			t.Fatal(err)
		}
		return out
	}
	clean, delayed := run(false), run(true)
	for r := range clean {
		if !bytes.Equal(clean[r], delayed[r]) {
			t.Fatalf("rank %d: a Delay fault changed the output", r)
		}
	}
}

// TestDropConnAbortsBothRanks: the DropConn action reaches the tcp
// backend's hook and both ends of the severed link unwind typed.
func TestDropConnAbortsBothRanks(t *testing.T) {
	peers := freePorts(t, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tm, err := tcp.New(tcp.Config{Rank: rank, Peers: peers, BlockBytes: block, ConnectTimeout: 20 * time.Second})
			if err != nil {
				errs[rank] = err
				return
			}
			m := faulty.Wrap(tm, seed, faulty.Fault{Rank: 0, Action: faulty.DropConn, Peer: 1, Op: "Barrier", Call: 2})
			defer m.Close()
			errs[rank] = m.Run(func(n *cluster.Node) error {
				n.Barrier() // survives: the fault arms on the second call
				n.Barrier() // severed mid-collective
				return nil
			})
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		var ae *cluster.ErrAborted
		if !errors.As(err, &ae) {
			t.Fatalf("rank %d: %v (want *cluster.ErrAborted)", rank, err)
		}
	}
}

func recSource(rank int) (io.Reader, int64, error) {
	return sortbench.NewReader(seed, int64(rank)*nPer, nPer), nPer, nil
}

// bandedSource feeds each rank 12000 records with descending keys, so
// every memory-sized chunk occupies its own key band in reverse chunk
// order. With block randomization off, run formation cannot
// pre-balance this: the final exchange must cross-shuffle whole run
// segments, which drives k to 3 (P=2) / 5 (P=4) sub-operations against
// the 2048-element quota — enough rounds for the pipelined A2AStream
// path to have an exchange in flight when the injected fault fires.
func bandedSource(rank int) (io.Reader, int64, error) {
	const n = 12000
	buf := make([]byte, 0, n*100)
	for i := int64(0); i < n; i++ {
		var r elem.Rec100
		binary.BigEndian.PutUint64(r[:8], uint64(n-i))
		r[8] = byte(rank)
		r[9] = byte(i)
		copy(r[10:], fmt.Sprintf("%020d", i))
		buf = append(buf, r[:]...)
	}
	return bytes.NewReader(buf), n, nil
}

func freePorts(t *testing.T, p int) []string {
	t.Helper()
	addrs, err := tcp.ReservePorts(p)
	if err != nil {
		t.Fatal(err)
	}
	return addrs
}

// chaosScenario is one cell family of the fault matrix.
type chaosScenario struct {
	name  string
	fault func(rank int) faulty.Fault
	// heartbeat scenarios need tight liveness bounds to finish fast.
	tightHeartbeat bool
	// banded scenarios feed descending banded keys with block
	// randomization off, the adversarial input that forces k ≥ 2
	// exchange sub-operations — with uniform input the randomized run
	// formation pre-balances the data and the A2AStream path never
	// engages (k = 1 moves only the sampling residue).
	banded bool
}

var chaosScenarios = []chaosScenario{
	{"crash-before-selection", func(r int) faulty.Fault {
		return faulty.Fault{Rank: r, Action: faulty.Crash, Phase: core.PhaseSelection}
	}, false, false},
	// The selection is lock-step rounds of three AllToAllv (proposals,
	// counts or residuals, verdicts) and an AllGather: the second
	// AllToAllv is the first round's counts, with the owners' pivots
	// published and the survivors parked in a collective. (From proven
	// brackets a P = 2 fleet may need only that one round.)
	{"crash-mid-selection-rounds", func(r int) faulty.Fault {
		return faulty.Fault{Rank: r, Action: faulty.Crash, Op: "AllToAllv", Phase: core.PhaseSelection, Call: 2}
	}, false, true},
	// A run is split in one AllGather (samples) and two AllToAllv
	// (residuals, answers) before its data's: the second AllToAllv is run
	// 0's answer exchange, with the owners holding gathered residuals.
	{"crash-mid-run-split", func(r int) faulty.Fault {
		return faulty.Fault{Rank: r, Action: faulty.Crash, Op: "AllToAllv", Phase: core.PhaseRunForm, Call: 2}
	}, false, false},
	{"crash-mid-all-to-all", func(r int) faulty.Fault {
		return faulty.Fault{Rank: r, Action: faulty.Crash, Op: "AllToAllv", Phase: core.PhaseExchange}
	}, false, false},
	{"wedge-mid-collect", func(r int) faulty.Fault {
		return faulty.Fault{Rank: r, Action: faulty.Wedge, Phase: "collect"}
	}, true, false},
	// Banded input gives k ≥ 3 sub-operations, so the second AllToAllv
	// call is a Post issued while the first exchange is still on the
	// wire — the fault lands mid double-buffered round, with the sender
	// goroutine live and a posted window un-collected.
	{"crash-mid-pipelined-exchange", func(r int) faulty.Fault {
		return faulty.Fault{Rank: r, Action: faulty.Crash, Op: "AllToAllv", Phase: core.PhaseExchange, Call: 2}
	}, false, true},
	{"wedge-mid-pipelined-exchange", func(r int) faulty.Fault {
		return faulty.Fault{Rank: r, Action: faulty.Wedge, Op: "AllToAllv", Phase: core.PhaseExchange, Call: 2}
	}, true, true},
}

// TestChaosMatrix drives the full sort on real tcp machines through
// every fault scenario × machine size × store backend, asserting the
// failure-plane contract end to end:
//
//   - the whole fleet unwinds in bounded time (no hangs, no reaper);
//   - every survivor's error is *cluster.ErrAborted naming the faulty
//     rank — blame is consistent fleet-wide;
//   - not one part-%03d file is published (staging .tmp only);
//   - no machine goroutines outlive the fleet.
func TestChaosMatrix(t *testing.T) {
	for _, sc := range chaosScenarios {
		for _, p := range []int{2, 4} {
			for _, store := range []string{"ram", "file"} {
				t.Run(fmt.Sprintf("%s_P%d_%s", sc.name, p, store), func(t *testing.T) {
					var newStore func(rank int) (blockio.Store, error)
					if store == "file" {
						newStore = blockio.FileStoreFactory(t.TempDir(), block)
					}
					runChaosCell(t, p, p/2, sc, newStore)
				})
			}
		}
	}
	// The fleet machinery must be fully gone once every cell is done.
	deadline := time.Now().Add(10 * time.Second)
	for machineGoroutines() > 0 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("machine goroutines leaked past Close:\n%s", buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func runChaosCell(t *testing.T, p, faultRank int, sc chaosScenario, newStore func(rank int) (blockio.Store, error)) {
	outdir := t.TempDir()
	peers := freePorts(t, p)
	fault := sc.fault(faultRank)
	errs := make([]error, p)
	machines := make([]*faulty.Machine, p)
	var created sync.WaitGroup
	created.Add(p)
	rankDone := make(chan int, p)
	start := time.Now()
	for rank := 0; rank < p; rank++ {
		go func(rank int) {
			defer func() { rankDone <- rank }()
			cfg := tcp.Config{
				Rank: rank, Peers: peers,
				BlockBytes: block, MemElems: mem,
				NewStore:       newStore,
				ConnectTimeout: 20 * time.Second,
			}
			if sc.tightHeartbeat {
				cfg.HeartbeatInterval = 20 * time.Millisecond
				cfg.HeartbeatTimeout = 300 * time.Millisecond
			}
			tm, err := tcp.New(cfg)
			if err != nil {
				errs[rank] = err
				created.Done()
				return
			}
			m := faulty.Wrap(tm, seed, fault)
			machines[rank] = m
			created.Done()
			defer m.Close()

			scfg := core.DefaultConfig(p, mem, block)
			scfg.Seed = seed
			scfg.Machine = m
			scfg.KeepOutput = false
			scfg.Source = recSource
			if sc.banded {
				scfg.Randomize = false
				scfg.Source = bandedSource
			}
			// Mirror the worker binary's publish protocol: stage to
			// .tmp, rename only after a clean sort.
			tmp := filepath.Join(outdir, fmt.Sprintf("part-%03d.tmp", rank))
			f, err := os.Create(tmp)
			if err != nil {
				errs[rank] = err
				return
			}
			scfg.Sink = func(_ int, b []byte) error {
				_, werr := f.Write(b)
				return werr
			}
			_, err = core.Sort[elem.Rec100](elem.Rec100Codec{}, scfg, nil)
			errs[rank] = err
			f.Close()
			if err == nil {
				os.Rename(tmp, strings.TrimSuffix(tmp, ".tmp"))
			}
		}(rank)
	}
	created.Wait()

	// Survivors must unwind on their own; the wedged rank stays parked
	// until released (it models a stuck process, and only resumes to
	// observe the abort the survivors raised).
	pending := p
	survivorsLeft := p - 1
	timeout := time.After(60 * time.Second)
	for pending > 0 {
		select {
		case rank := <-rankDone:
			pending--
			if rank != faultRank {
				if survivorsLeft--; survivorsLeft == 0 && machines[faultRank] != nil {
					machines[faultRank].Release()
				}
			}
		case <-timeout:
			t.Fatalf("fleet still running 60s after the injected fault (%d ranks pending)", pending)
		}
	}
	if elapsed := time.Since(start); elapsed > 55*time.Second {
		t.Fatalf("fleet took %v to unwind", elapsed)
	}

	for rank, err := range errs {
		var ae *cluster.ErrAborted
		if !errors.As(err, &ae) {
			t.Fatalf("rank %d: %v (want *cluster.ErrAborted)", rank, err)
		}
		// Survivors must all blame the faulty rank; the faulty rank's
		// own attribution depends on what it observes first when it
		// resumes, so only its typed unwind is asserted.
		if rank != faultRank && ae.Rank != faultRank {
			t.Fatalf("rank %d blamed rank %d, want %d (%v)", rank, ae.Rank, faultRank, err)
		}
	}

	entries, err := os.ReadDir(outdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			continue // staging debris is fine; published parts are not
		}
		if strings.HasPrefix(e.Name(), "part-") {
			t.Fatalf("aborted fleet published %s — parts must only appear via rename-on-success", e.Name())
		}
	}
}

// machineGoroutines counts goroutines still inside tcp machine code.
func machineGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "demsort/internal/cluster/tcp.(*Machine)") {
			n++
		}
	}
	return n
}
