package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"demsort/internal/blockio"
	"demsort/internal/cluster"
	"demsort/internal/cluster/faulty"
	"demsort/internal/cluster/sim"
	"demsort/internal/elem"
	"demsort/internal/workload"
)

// tallySource wraps a slice-backed Source so the test can prove how
// many input bytes the sort actually pulled (the "zero re-read"
// evidence of the resume contract). One shared counter — sim ranks
// stream concurrently.
func tallySource(input [][]elem.KV16) (func(rank int) (io.Reader, int64, error), *atomic.Int64) {
	var n atomic.Int64
	return func(rank int) (io.Reader, int64, error) {
		enc := elem.EncodeSlice(kvc, input[rank])
		return &tallyReader{r: bytes.NewReader(enc), n: &n}, int64(len(input[rank])), nil
	}, &n
}

// tallyReader counts what is read through either interface, and is
// read in place like the CLI's -infile section.
type tallyReader struct {
	r *bytes.Reader
	n *atomic.Int64
}

func (t *tallyReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	t.n.Add(int64(n))
	return n, err
}

func (t *tallyReader) ReadAt(p []byte, off int64) (int, error) {
	n, err := t.r.ReadAt(p, off)
	t.n.Add(int64(n))
	return n, err
}

func (t *tallyReader) Size() int64 { return t.r.Size() }

// sinkCapture collects each rank's sorted output bytes (ranks stream
// concurrently on the sim backend).
func sinkCapture(p int) (func(rank int, b []byte) error, [][]byte) {
	out := make([][]byte, p)
	var mu sync.Mutex
	return func(rank int, b []byte) error {
		mu.Lock()
		out[rank] = append(out[rank], b...)
		mu.Unlock()
		return nil
	}, out
}

func ckptConfig(p int, dir string, resume bool, epoch int) Config {
	cfg := testConfig(p)
	cfg.KeepOutput = false
	cfg.NewStore = blockio.DurableFileStoreFactory(dir, cfg.BlockBytes)
	cfg.Checkpoint = CheckpointConfig{Dir: dir, JobID: "ckpt-test", Epoch: epoch, Resume: resume}
	return cfg
}

// TestResumeSkipsCommittedPhases is the heart of the checkpoint plane:
// a durable run commits after run formation and selection; a resumed
// run on the same workdir produces byte-identical output while reading
// ZERO input bytes and never entering the committed phases.
func TestResumeSkipsCommittedPhases(t *testing.T) {
	const p = 4
	input := inputFor(testConfig(p), workload.Uniform, 5200, 23)

	// Reference: the plain, non-durable streaming run.
	refCfg := testConfig(p)
	refCfg.KeepOutput = false
	refCfg.Source, _ = tallySource(input)
	refSink, refOut := sinkCapture(p)
	refCfg.Sink = refSink
	if _, err := Sort[elem.KV16](kvc, refCfg, nil); err != nil {
		t.Fatal(err)
	}

	// Durable fresh run: same output, manifests committed.
	dir := t.TempDir()
	cfg := ckptConfig(p, dir, false, 0)
	src, readBytes := tallySource(input)
	cfg.Source = src
	sink, out := sinkCapture(p)
	cfg.Sink = sink
	if _, err := Sort[elem.KV16](kvc, cfg, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := readBytes.Load(), int64(p*5200*16); got != want {
		t.Fatalf("fresh run read %d input bytes, want the input once: %d", got, want)
	}
	for r := 0; r < p; r++ {
		if !bytes.Equal(out[r], refOut[r]) {
			t.Fatalf("rank %d: durable mode changed the output", r)
		}
		man, err := blockio.LoadManifest(dir, r)
		if err != nil {
			t.Fatalf("rank %d committed no manifest: %v", r, err)
		}
		if len(man.Splitters) != p+1 {
			t.Fatalf("rank %d manifest has %d splitter rows, want %d", r, len(man.Splitters), p+1)
		}
	}

	// Resume: byte-identical, zero input bytes, committed phases never
	// entered (they have no stats entries).
	rcfg := ckptConfig(p, dir, true, 1)
	rsrc, reread := tallySource(input)
	rcfg.Source = rsrc
	rsink, rout := sinkCapture(p)
	rcfg.Sink = rsink
	res, err := Sort[elem.KV16](kvc, rcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := reread.Load(); got != 0 {
		t.Fatalf("resume re-read %d input bytes, want 0", got)
	}
	for r := 0; r < p; r++ {
		if !bytes.Equal(rout[r], refOut[r]) {
			t.Fatalf("rank %d: resumed output differs from the reference", r)
		}
		if res.PerPE[r][PhaseRunForm] != nil || res.PerPE[r][PhaseSelection] != nil {
			t.Fatalf("rank %d re-entered a committed phase on resume", r)
		}
		if res.PerPE[r][PhaseExchange] == nil || res.PerPE[r][PhaseMerge] == nil {
			t.Fatalf("rank %d skipped an uncommitted phase on resume", r)
		}
	}
	if res.EndMemElems[0] != 0 {
		t.Fatalf("resume leaked %d memory reservations", res.EndMemElems[0])
	}
}

// TestResumeDowngradesToMinPhase: a crash can land between the
// selection commits of different ranks. The fleet must agree on the
// MINIMUM committed phase — a rank whose manifest is ahead downgrades
// and re-runs selection with everyone else, bit-identically.
func TestResumeDowngradesToMinPhase(t *testing.T) {
	const p = 2
	input := inputFor(testConfig(p), workload.Uniform, 5200, 29)
	dir := t.TempDir()

	cfg := ckptConfig(p, dir, false, 0)
	cfg.Source, _ = tallySource(input)
	sink, out := sinkCapture(p)
	cfg.Sink = sink
	if _, err := Sort[elem.KV16](kvc, cfg, nil); err != nil {
		t.Fatal(err)
	}

	// Rewind rank 1's manifest to the run-formation commit, as if the
	// crash hit before its selection commit landed.
	man, err := blockio.LoadManifest(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	man.Splitters = nil
	if err := man.WriteFile(dir); err != nil {
		t.Fatal(err)
	}

	rcfg := ckptConfig(p, dir, true, 1)
	rsrc, reread := tallySource(input)
	rcfg.Source = rsrc
	rsink, rout := sinkCapture(p)
	rcfg.Sink = rsink
	res, err := Sort[elem.KV16](kvc, rcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := reread.Load(); got != 0 {
		t.Fatalf("downgraded resume re-read %d input bytes, want 0 (runs are still committed)", got)
	}
	for r := 0; r < p; r++ {
		if !bytes.Equal(rout[r], out[r]) {
			t.Fatalf("rank %d: downgraded resume changed the output", r)
		}
		// BOTH ranks re-ran selection — including rank 0, whose own
		// manifest was still at the selection commit.
		if res.PerPE[r][PhaseSelection] == nil {
			t.Fatalf("rank %d did not re-run selection after the fleet downgrade", r)
		}
		if res.PerPE[r][PhaseRunForm] != nil {
			t.Fatalf("rank %d re-ran run formation despite its commit", r)
		}
	}
}

// Resume must refuse manifests that describe a different job or a
// non-durable store rather than quietly sorting garbage.
func TestCheckpointValidation(t *testing.T) {
	const p = 2
	input := inputFor(testConfig(p), workload.Uniform, 5200, 31)
	dir := t.TempDir()

	cfg := ckptConfig(p, dir, false, 0)
	cfg.Source, _ = tallySource(input)
	cfg.Sink = func(int, []byte) error { return nil }
	if _, err := Sort[elem.KV16](kvc, cfg, nil); err != nil {
		t.Fatal(err)
	}

	// Wrong job ID.
	bad := ckptConfig(p, dir, true, 1)
	bad.Checkpoint.JobID = "someone-elses-job"
	bad.Source, _ = tallySource(input)
	bad.Sink = func(int, []byte) error { return nil }
	if _, err := Sort[elem.KV16](kvc, bad, nil); err == nil {
		t.Fatal("resume accepted a foreign job's manifests")
	}

	// A manifest whose runs do not fit the segments their lengths
	// imply: a sample share one element long (as the whole-run sample
	// is), or extents one element short of the segment; or whose
	// extents name one block twice, within a run or across two.
	orig, err := blockio.LoadManifest(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(orig.Runs) < 2 || len(orig.Runs[0].Extents) < 2 {
		t.Fatalf("test degenerate: %d runs, %d extents in the first", len(orig.Runs), len(orig.Runs[0].Extents))
	}
	for i, tc := range []struct {
		tamper func(man *blockio.Manifest)
		want   string
	}{
		{func(man *blockio.Manifest) {
			man.Runs[0].Sample = append(man.Runs[0].Sample, make([]byte, kvc.Size())...)
		}, "sample bytes"},
		{func(man *blockio.Manifest) { man.Runs[0].Extents[0].Len-- }, "sample bytes"},
		{func(man *blockio.Manifest) { man.Runs[0].Extents[1].ID = man.Runs[0].Extents[0].ID }, "twice (again in run 0)"},
		{func(man *blockio.Manifest) { man.Runs[1].Extents[0].ID = man.Runs[0].Extents[0].ID }, "twice (again in run 1)"},
	} {
		if err := orig.WriteFile(dir); err != nil {
			t.Fatal(err)
		}
		man, err := blockio.LoadManifest(dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		tc.tamper(man)
		if err := man.WriteFile(dir); err != nil {
			t.Fatal(err)
		}
		bad := ckptConfig(p, dir, true, 1)
		bad.Source, _ = tallySource(input)
		bad.Sink = func(int, []byte) error { return nil }
		if _, err := Sort[elem.KV16](kvc, bad, nil); err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "same flags and binary") {
			t.Fatalf("tampered manifest %d: resume returned %v, want a refusal naming %q", i, err, tc.want)
		}
	}
	if err := orig.WriteFile(dir); err != nil {
		t.Fatal(err)
	}

	// Checkpointing onto a non-durable (RAM) store must fail loudly at
	// the first commit, not lose the checkpoint silently.
	ram := testConfig(p)
	ram.KeepOutput = false
	ram.Checkpoint = CheckpointConfig{Dir: t.TempDir(), JobID: "x"}
	ram.Source, _ = tallySource(input)
	ram.Sink = func(int, []byte) error { return nil }
	if _, err := Sort[elem.KV16](kvc, ram, nil); err == nil {
		t.Fatal("checkpointing accepted a RAM store that cannot survive a restart")
	}
}

// TestChaosRestartMatrix is the recovery half of PR 6's chaos plane:
// kill one rank in each phase of the sort, then restart the job the
// way the launcher would — from scratch for a RAM-backed fleet, via
// manifest resume for a durable file-backed one — and require output
// byte-identical to the unfaulted run, with no goroutine leaks.
func TestChaosRestartMatrix(t *testing.T) {
	phases := []string{PhaseRunForm, PhaseSelection, PhaseExchange, PhaseMerge}
	before := runtime.NumGoroutine()
	for _, p := range []int{2, 4} {
		input := inputFor(testConfig(p), workload.Uniform, 5200+37*p, 41)

		refCfg := testConfig(p)
		refCfg.KeepOutput = false
		refCfg.Source, _ = tallySource(input)
		refSink, refOut := sinkCapture(p)
		refCfg.Sink = refSink
		if _, err := Sort[elem.KV16](kvc, refCfg, nil); err != nil {
			t.Fatal(err)
		}

		for _, mode := range []string{"ram-fresh-restart", "file-resume"} {
			for _, phase := range phases {
				t.Run(fmt.Sprintf("P%d_%s_crash-in-%s", p, mode, phase), func(t *testing.T) {
					victim := p / 2
					dir := t.TempDir()

					// Incarnation 1: durable when resuming, and killed
					// by the deterministic injector in the target phase.
					var cfg1 Config
					if mode == "file-resume" {
						cfg1 = ckptConfig(p, dir, false, 0)
					} else {
						cfg1 = testConfig(p)
						cfg1.KeepOutput = false
					}
					sm, err := sim.New(sim.Config{
						P: p, BlockBytes: cfg1.BlockBytes, MemElems: cfg1.MemElems,
						Model: cfg1.Model, NewStore: cfg1.NewStore,
					})
					if err != nil {
						t.Fatal(err)
					}
					fm := faulty.Wrap(sm, 7, faulty.Fault{Rank: victim, Action: faulty.Crash, Phase: phase})
					cfg1.Machine = fm
					cfg1.NewStore = nil
					cfg1.Source, _ = tallySource(input)
					cfg1.Sink = func(int, []byte) error { return nil }
					_, err = Sort[elem.KV16](kvc, cfg1, nil)
					fm.Close()
					var ae *cluster.ErrAborted
					if !errors.As(err, &ae) || ae.Rank != victim {
						t.Fatalf("crash in %q returned %v, want abort naming rank %d", phase, err, victim)
					}

					// Incarnation 2: restart the job. Fresh for RAM,
					// manifest resume at the next epoch for file.
					var cfg2 Config
					if mode == "file-resume" {
						cfg2 = ckptConfig(p, dir, true, 1)
					} else {
						cfg2 = testConfig(p)
						cfg2.KeepOutput = false
					}
					src, reread := tallySource(input)
					cfg2.Source = src
					sink, out := sinkCapture(p)
					cfg2.Sink = sink
					if _, err := Sort[elem.KV16](kvc, cfg2, nil); err != nil {
						t.Fatalf("restart after crash in %q: %v", phase, err)
					}
					for r := 0; r < p; r++ {
						if !bytes.Equal(out[r], refOut[r]) {
							t.Fatalf("rank %d: restarted output differs from the unfaulted run", r)
						}
					}
					// Once run formation has committed, resume re-reads
					// nothing; a crash before the first commit degrades
					// to a fresh run, which must re-read everything.
					if mode == "file-resume" && phase != PhaseRunForm {
						if got := reread.Load(); got != 0 {
							t.Fatalf("resume after crash in %q re-read %d input bytes, want 0", phase, got)
						}
					} else if reread.Load() == 0 {
						t.Fatal("a from-scratch restart claims it read no input")
					}
				})
			}
		}
	}
	// Every machine (faulted and restarted) must be fully torn down.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestResultNFromRunDirectory: Result.N is the run directory's total, so
// it is the input size on a fresh durable run and on resumes from
// either checkpoint level — runs that never read the input.
func TestResultNFromRunDirectory(t *testing.T) {
	const p, perPE = 3, 4100
	input := inputFor(testConfig(p), workload.Uniform, perPE, 43)
	dir := t.TempDir()
	sortN := func(what string, cfg Config) {
		t.Helper()
		cfg.Source, _ = tallySource(input)
		cfg.Sink = func(int, []byte) error { return nil }
		res, err := Sort[elem.KV16](kvc, cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if res.N != p*perPE {
			t.Fatalf("%s: Result.N = %d, want %d", what, res.N, p*perPE)
		}
	}
	sortN("fresh durable run", ckptConfig(p, dir, false, 0))
	sortN("resume from the selection commit", ckptConfig(p, dir, true, 1))
	for r := range p {
		man, err := blockio.LoadManifest(dir, r)
		if err != nil {
			t.Fatal(err)
		}
		man.Splitters = nil
		if err := man.WriteFile(dir); err != nil {
			t.Fatal(err)
		}
	}
	sortN("resume from the run-formation commit", ckptConfig(p, dir, true, 2))
}

// TestResumeFromStagedInput: a forward-only Source is staged onto the
// durable store, and run formation frees every staged block it reads, so
// the run-formation commit finds only the runs' blocks live — the
// condition a resume derives the store from. A fleet resumed from that
// commit writes the unfaulted run's output and reads no input.
func TestResumeFromStagedInput(t *testing.T) {
	const p, perPE = 3, 4100
	input := inputFor(testConfig(p), workload.Uniform, perPE, 59)
	dir := t.TempDir()
	fresh := ckptConfig(p, dir, false, 0)
	src, readBytes := tallySource(input)
	fresh.Source = func(rank int) (io.Reader, int64, error) {
		r, n, err := src(rank)
		return struct{ io.Reader }{r}, n, err
	}
	sink, out := sinkCapture(p)
	fresh.Sink = sink
	if _, err := Sort[elem.KV16](kvc, fresh, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := readBytes.Load(), int64(p*perPE*kvc.Size()); got != want {
		t.Fatalf("staged run read %d input bytes, want %d", got, want)
	}
	for r := range p {
		man, err := blockio.LoadManifest(dir, r)
		if err != nil {
			t.Fatal(err)
		}
		man.Splitters = nil
		if err := man.WriteFile(dir); err != nil {
			t.Fatal(err)
		}
	}

	resumed := ckptConfig(p, dir, true, 1)
	rsrc, reread := tallySource(input)
	resumed.Source = rsrc
	rsink, rout := sinkCapture(p)
	resumed.Sink = rsink
	if _, err := Sort[elem.KV16](kvc, resumed, nil); err != nil {
		t.Fatal(err)
	}
	if got := reread.Load(); got != 0 {
		t.Fatalf("resume re-read %d input bytes, want 0", got)
	}
	for r := range p {
		if !bytes.Equal(rout[r], out[r]) {
			t.Fatalf("rank %d: resumed output differs from the unfaulted run's", r)
		}
	}
}

// TestResumeShortRunFromRunformCommit: on uneven tiles whose last run
// is shorter than P — its low PEs hold empty segments — a fleet resumed
// from the run-formation commit rebuilds every segment from the run's
// length, re-reads no input and writes the non-durable run's output.
func TestResumeShortRunFromRunformCommit(t *testing.T) {
	const p, base = 4, 4096
	input := inputFor(testConfig(p), workload.Uniform, base+3, 47)
	input[1] = input[1][:base-50]
	for q := 2; q < p; q++ {
		input[q] = input[q][:base]
	}
	config := func(cfg Config) Config {
		cfg.Randomize = false // keeps the 3-element tail block in the last run
		cfg.Source, _ = tallySource(input)
		return cfg
	}

	ref := config(testConfig(p))
	ref.KeepOutput = false
	refSink, refOut := sinkCapture(p)
	ref.Sink = refSink
	if _, err := Sort[elem.KV16](kvc, ref, nil); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	fresh := config(ckptConfig(p, dir, false, 0))
	fresh.Sink = func(int, []byte) error { return nil }
	if _, err := Sort[elem.KV16](kvc, fresh, nil); err != nil {
		t.Fatal(err)
	}
	var lens []int64
	for r := range p {
		man, err := blockio.LoadManifest(dir, r)
		if err != nil {
			t.Fatal(err)
		}
		man.Splitters = nil
		if err := man.WriteFile(dir); err != nil {
			t.Fatal(err)
		}
		if r == 0 {
			for _, rm := range man.Runs {
				lens = append(lens, rm.RunLen)
			}
		}
	}
	if slices.Min(lens) >= p {
		t.Fatalf("run lengths %v: no run is shorter than P = %d", lens, p)
	}

	resumed := config(ckptConfig(p, dir, true, 1))
	src, reread := tallySource(input)
	resumed.Source = src
	sink, out := sinkCapture(p)
	resumed.Sink = sink
	res, err := Sort[elem.KV16](kvc, resumed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := reread.Load(); got != 0 {
		t.Fatalf("resume re-read %d input bytes, want 0", got)
	}
	for r := range p {
		if !bytes.Equal(out[r], refOut[r]) {
			t.Fatalf("rank %d: resumed output differs from the reference (run lengths %v)", r, lens)
		}
		if res.PerPE[r][PhaseRunForm] != nil || res.PerPE[r][PhaseSelection] == nil {
			t.Fatalf("rank %d did not resume from the run-formation commit", r)
		}
	}
	if res.EndMemElems[0] != 0 {
		t.Fatalf("resume leaked %d memory reservations", res.EndMemElems[0])
	}
}

// opCounts hosts a machine's PEs with an op hook counting each rank's
// communication calls by name.
type opCounts struct {
	cluster.Machine
	calls []map[string]int
}

func (m *opCounts) Run(fn func(*cluster.Node) error) error {
	return m.Machine.Run(func(n *cluster.Node) error {
		calls := map[string]int{}
		m.calls[n.Rank] = calls
		n.SetOpHook(func(op string) { calls[op]++ })
		defer n.SetOpHook(nil)
		return fn(n)
	})
}

// TestResumeFromSelectionGathersNoSample: a fleet resumed from the
// selection commit re-runs neither run formation nor selection, so it
// gathers no sample — its run directory is the local run lengths, and
// the restored sample shares are released unread. It makes no
// AllGather at all, writes the unfaulted run's output and reports the
// input size as Result.N.
func TestResumeFromSelectionGathersNoSample(t *testing.T) {
	const p, perPE = 3, 4100
	input := inputFor(testConfig(p), workload.Uniform, perPE, 53)
	dir := t.TempDir()
	fresh := ckptConfig(p, dir, false, 0)
	fresh.Source, _ = tallySource(input)
	sink, out := sinkCapture(p)
	fresh.Sink = sink
	if _, err := Sort[elem.KV16](kvc, fresh, nil); err != nil {
		t.Fatal(err)
	}

	resumed := ckptConfig(p, dir, true, 1)
	resumed.Source, _ = tallySource(input)
	rsink, rout := sinkCapture(p)
	resumed.Sink = rsink
	sm, err := sim.New(sim.Config{P: p, BlockBytes: resumed.BlockBytes, MemElems: resumed.MemElems, Model: resumed.Model, NewStore: resumed.NewStore})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	m := &opCounts{Machine: sm, calls: make([]map[string]int, p)}
	resumed.Machine = m
	res, err := Sort[elem.KV16](kvc, resumed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != p*perPE {
		t.Fatalf("Result.N = %d, want %d", res.N, p*perPE)
	}
	for r := range p {
		if res.PerPE[r][PhaseSelection] != nil {
			t.Fatalf("rank %d re-ran selection", r)
		}
		if !bytes.Equal(rout[r], out[r]) {
			t.Fatalf("rank %d: resumed output differs from the unfaulted run's", r)
		}
	}
	// The two AllReduceInt64 are the resume negotiation's and the
	// exchange's sub-operation count, which makes one AllToAllv per
	// sub-operation; the Barriers close the restore, the exchange, the
	// final merge and the sort.
	want := map[string]int{"AllReduceInt64": 2, "AllToAllv": res.SubOps, "Barrier": 4}
	for r, got := range m.calls {
		if !maps.Equal(got, want) {
			t.Errorf("rank %d: calls %v, want %v", r, got, want)
		}
	}
	if res.EndMemElems[0] != 0 {
		t.Fatalf("resume leaked %d memory reservations", res.EndMemElems[0])
	}
}
