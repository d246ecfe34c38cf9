package main

// Multi-process acceptance test: demsort -transport=tcp must sort a
// gensort dataset across 4 real local worker processes and produce
// output byte-identical to the sim backend's on the same seed.
//
// The test binary doubles as the demsort binary: TestMain re-enters
// main() when DEMSORT_ARGS is set, which is exactly the hook the
// launcher uses to spawn its workers (os.Executable() + DEMSORT_ARGS),
// so launcher, workers and the wire protocol all run for real.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	if args := os.Getenv("DEMSORT_ARGS"); args != "" {
		os.Args = append(os.Args[:1], strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The worker summary line, as the benchmark parses it, and one phase of
// its parenthesised breakdown.
var (
	summaryRE = regexp.MustCompile(`(?m)^\[w\d+\] rank \d+: \d+ records in ([0-9.]+)s \((.*)\)$`)
	phaseRE   = regexp.MustCompile(`([a-z- ]+) ([0-9.]+)s`)
)

func TestTCPLauncherMatchesSim(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	simDir := filepath.Join(tmp, "sim")
	tcpDir := filepath.Join(tmp, "tcp")

	runDemsort := func(args string) string {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), "DEMSORT_ARGS="+args)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("demsort %s: %v\n%s", args, err, out)
		}
		return string(out)
	}

	// Simulated reference run, then the real 4-process tcp run.
	simOut := runDemsort("-workload=records -p 4 -n 2000 -seed 99 -outdir " + simDir)
	tcpOut := runDemsort("-transport=tcp -p 4 -n 2000 -seed 99 -outdir " + tcpDir)
	for _, out := range []string{simOut, tcpOut} {
		if !strings.Contains(out, "validation: OK") {
			t.Fatalf("run did not validate:\n%s", out)
		}
	}
	if !strings.Contains(tcpOut, "rank 3:") {
		t.Fatalf("launcher did not run 4 workers:\n%s", tcpOut)
	}
	// Every worker's summary line names all of its wall: the phases in
	// the parentheses sum to the "records in" figure (5 %, plus the
	// rounding of seven three-decimal terms).
	lines := summaryRE.FindAllStringSubmatch(tcpOut, -1)
	if len(lines) != 4 {
		t.Fatalf("want 4 worker summary lines, got %d:\n%s", len(lines), tcpOut)
	}
	for _, m := range lines {
		wall, _ := strconv.ParseFloat(m[1], 64)
		var sum float64
		phases := phaseRE.FindAllStringSubmatch(m[2], -1)
		for _, ph := range phases {
			sec, _ := strconv.ParseFloat(ph[2], 64)
			sum += sec
		}
		if len(phases) != 7 || !strings.HasPrefix(m[2], "load ") || !strings.Contains(m[2], "| publish ") {
			t.Fatalf("summary line lacks a phase (want load … collect, publish): %s", m[0])
		}
		if diff := wall - sum; diff < -0.004 || diff > 0.05*wall+0.004 {
			t.Fatalf("phases sum to %.3fs of a %.3fs wall: %s", sum, wall, m[0])
		}
	}

	for rank := 0; rank < 4; rank++ {
		name := "part-00" + string(rune('0'+rank))
		simPart, err := os.ReadFile(filepath.Join(simDir, name))
		if err != nil {
			t.Fatal(err)
		}
		tcpPart, err := os.ReadFile(filepath.Join(tcpDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(simPart) != string(tcpPart) {
			t.Fatalf("%s differs between sim and tcp backends", name)
		}
		if len(simPart) != 2000*100 {
			t.Fatalf("%s holds %d bytes, want %d", name, len(simPart), 2000*100)
		}
	}
}

// TestStripedTCPLauncherMatchesSim is the acceptance scenario of the
// streaming I/O plane: `demsort -striped -transport=tcp -store=file`
// across 4 real worker processes must valsort clean and produce part
// files byte-identical to the striped sim backend on the same seed —
// the scenario the old in-process output reassembly hard-rejected.
func TestStripedTCPLauncherMatchesSim(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	simDir := filepath.Join(tmp, "sim")
	tcpDir := filepath.Join(tmp, "tcp")

	runDemsort := func(args string) string {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), "DEMSORT_ARGS="+args)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("demsort %s: %v\n%s", args, err, out)
		}
		return string(out)
	}

	simOut := runDemsort("-striped -workload=records -p 4 -n 2000 -seed 77 -outdir " + simDir)
	tcpOut := runDemsort("-striped -transport=tcp -store=file -p 4 -n 2000 -seed 77 -outdir " + tcpDir)
	for _, out := range []string{simOut, tcpOut} {
		if !strings.Contains(out, "validation: OK") {
			t.Fatalf("striped run did not validate:\n%s", out)
		}
	}
	if !strings.Contains(tcpOut, "rank 3:") {
		t.Fatalf("launcher did not run 4 striped workers:\n%s", tcpOut)
	}
	// A real-process run says what it did in the words of the sim run:
	// rank 0 prints the sort's headline, once.
	headline := simOut[:strings.Index(simOut, "\n")]
	if !strings.HasPrefix(headline, "globally striped mergesort[records]") || strings.Count(tcpOut, headline) != 1 {
		t.Fatalf("the workers printed the headline %q %d times, want once:\n%s", headline, strings.Count(tcpOut, headline), tcpOut)
	}
	var total int64
	for rank := 0; rank < 4; rank++ {
		name := fmt.Sprintf("part-%03d", rank)
		simPart, err := os.ReadFile(filepath.Join(simDir, name))
		if err != nil {
			t.Fatal(err)
		}
		tcpPart, err := os.ReadFile(filepath.Join(tcpDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(simPart) != string(tcpPart) {
			t.Fatalf("%s differs between striped sim and striped tcp", name)
		}
		total += int64(len(tcpPart))
		// The tmp staging file must have been renamed away.
		if _, err := os.Stat(filepath.Join(tcpDir, name+".tmp")); err == nil {
			t.Fatalf("%s.tmp still present after a clean run", name)
		}
	}
	if total != 4*2000*100 {
		t.Fatalf("striped parts hold %d bytes total, want %d", total, 4*2000*100)
	}
}

// TestWorkerFailureLeavesNoTruncatedPart kills one worker mid-fleet
// (deterministically, via the fault injector: rank 1 dies on its first
// all-to-all exchange) and asserts outdir holds no part-%03d
// afterwards: parts stage as .tmp and publish by rename on success
// only, so an aborted or reaped worker can never leave a truncated
// partition behind.
func TestWorkerFailureLeavesNoTruncatedPart(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	outdir := filepath.Join(t.TempDir(), "out")
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"DEMSORT_ARGS=-transport=tcp -p 4 -n 5000 -seed 13 -fault rank=1,action=die,op=AllToAllv,phase=all-to-all -outdir "+outdir,
	)
	out, runErr := cmd.CombinedOutput()
	if runErr == nil {
		t.Fatalf("launcher exited 0 despite a crashed worker:\n%s", out)
	}
	entries, err := os.ReadDir(outdir)
	if err != nil {
		return // outdir never created: trivially no partial parts
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") || e.IsDir() {
			continue // staging files and workdirs are expected debris
		}
		if strings.HasPrefix(e.Name(), "part-") {
			t.Fatalf("aborted fleet published %s — parts must only appear via rename-on-success", e.Name())
		}
	}
}

// TestHostfileLauncherMatchesSim drives the multi-host code path on a
// localhost hostfile with file-backed workers: parse + placement + the
// fork spawner + -store=file + sink-streamed part files, output
// byte-identical to the sim backend.
func TestHostfileLauncherMatchesSim(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	hf := filepath.Join(tmp, "hosts")
	// Two hostfile lines for the same machine: placement must merge
	// them into ranks 0..3.
	if err := os.WriteFile(hf, []byte("localhost slots=2 # first pair\n127.0.0.1 slots=2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	simDir := filepath.Join(tmp, "sim")
	tcpDir := filepath.Join(tmp, "tcp")

	runDemsort := func(args string) string {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), "DEMSORT_ARGS="+args)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("demsort %s: %v\n%s", args, err, out)
		}
		return string(out)
	}

	simOut := runDemsort("-workload=records -p 4 -n 1500 -seed 31 -outdir " + simDir)
	tcpOut := runDemsort("-transport=tcp -hostfile " + hf + " -n 1500 -seed 31 -store=file -outdir " + tcpDir)
	for _, out := range []string{simOut, tcpOut} {
		if !strings.Contains(out, "validation: OK") {
			t.Fatalf("run did not validate:\n%s", out)
		}
	}
	if !strings.Contains(tcpOut, "launching 4 workers") {
		t.Fatalf("hostfile slots did not set the machine size:\n%s", tcpOut)
	}
	for rank := 0; rank < 4; rank++ {
		name := fmt.Sprintf("part-%03d", rank)
		simPart, err := os.ReadFile(filepath.Join(simDir, name))
		if err != nil {
			t.Fatal(err)
		}
		tcpPart, err := os.ReadFile(filepath.Join(tcpDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(simPart) != string(tcpPart) {
			t.Fatalf("%s differs between sim and hostfile-launched tcp", name)
		}
	}
	// A clean run leaves no spill blocks behind (FileStore.Close
	// removes them).
	if files, err := os.ReadDir(filepath.Join(tcpDir, "work")); err == nil && len(files) > 0 {
		t.Fatalf("spill dir still holds %d files after a clean run", len(files))
	}
}

// TestWorkerCrashAbortsFleet kills one tcp worker mid-run
// (deterministic injector: rank 2 dies at its first collective) and
// asserts the fleet dies with it, promptly: surviving ranks abort on
// the lost peer instead of hanging, and the launcher exits non-zero
// well within the peers' 30s connect/abort margins.
func TestWorkerCrashAbortsFleet(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	outdir := filepath.Join(t.TempDir(), "out")
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"DEMSORT_ARGS=-transport=tcp -p 4 -n 20000 -seed 13 -fault rank=2,action=die -outdir "+outdir,
	)
	start := time.Now()
	done := make(chan error, 1)
	var out []byte
	go func() {
		var runErr error
		out, runErr = cmd.CombinedOutput()
		done <- runErr
	}()
	select {
	case runErr := <-done:
		if runErr == nil {
			t.Fatalf("launcher exited 0 despite a crashed worker:\n%s", out)
		}
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("launcher still running 20s after a worker crash")
	}
	elapsed := time.Since(start)
	if elapsed > 15*time.Second {
		t.Fatalf("fleet took %v to die; want prompt reaping", elapsed)
	}
	text := string(out)
	if !strings.Contains(text, "worker 2") {
		t.Fatalf("launcher did not report the crashed worker:\n%s", text)
	}
	if !strings.Contains(text, "aborted: rank 2") {
		t.Fatalf("surviving ranks did not return the typed abort naming the dead rank:\n%s", text)
	}
}

// TestFleetAbortPropagation is the failure plane's acceptance
// scenario: a fleet of 4 real tcp processes, one rank killed mid
// all-to-all by the deterministic injector. Every surviving rank must
// unwind via internal abort propagation — returning the typed
// ErrAborted naming the dead rank — within the launcher's grace
// window, WITHOUT the launcher killing a single survivor.
func TestFleetAbortPropagation(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	outdir := filepath.Join(t.TempDir(), "out")
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"DEMSORT_ARGS=-transport=tcp -p 4 -n 20000 -seed 13 -fault rank=2,action=die,op=AllToAllv,phase=all-to-all -outdir "+outdir,
	)
	start := time.Now()
	done := make(chan error, 1)
	var out []byte
	go func() {
		var runErr error
		out, runErr = cmd.CombinedOutput()
		done <- runErr
	}()
	select {
	case runErr := <-done:
		if runErr == nil {
			t.Fatalf("launcher exited 0 despite a crashed worker:\n%s", out)
		}
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("launcher still running 20s after a worker crash")
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("fleet took %v to unwind; want bounded internal abort", elapsed)
	}
	text := string(out)
	// Every survivor returns *cluster.ErrAborted attributing the dead
	// rank (printed by the worker, prefixed by the launcher).
	for _, rank := range []int{0, 1, 3} {
		prefix := fmt.Sprintf("[w%d] ", rank)
		found := false
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, prefix) && strings.Contains(line, "aborted: rank 2") {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("rank %d did not unwind with the typed abort naming rank 2:\n%s", rank, text)
		}
	}
	// The survivors unwound from the inside: the launcher never had to
	// reap anyone.
	if strings.Contains(text, "reaping the remaining workers") {
		t.Fatalf("launcher had to reap survivors — abort propagation did not unwind them in time:\n%s", text)
	}
}

// TestWorkerListenRaceExitsFast pins the ReservePorts TOCTOU handling:
// a worker whose reserved port was grabbed by someone else must fail
// immediately with the dedicated exit code (the launcher's retry
// signal) instead of leaving the fleet dialing a dead address.
func TestWorkerListenRaceExitsFast(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0") // the "other process" holding the port
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"DEMSORT_ARGS=-transport=tcp -rank 0 -peers "+ln.Addr().String()+",127.0.0.1:1 -n 100")
	start := time.Now()
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("worker bound an occupied port?\n%s", out)
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 3 {
		t.Fatalf("want exit code 3 (listen race), got %v\n%s", err, out)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("listen failure took %v; must fail fast", elapsed)
	}
	if !strings.Contains(string(out), "listen") {
		t.Fatalf("error not actionable:\n%s", out)
	}
}
