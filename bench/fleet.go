package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"demsort/internal/cluster/tcp"
	"demsort/internal/sortbench"
)

// repTimeout bounds one repetition; on expiry the whole process group
// is killed and the repetition counts as failed.
const repTimeout = 60 * time.Second

// harness holds what every repetition needs: the binaries (built once,
// before any timing) and the data directory.
type harness struct {
	demsort string
	gensort string
	self    string // this binary, re-executed as traced worker
	dataDir string // fresh demsort-bench-* directory, removed at exit
}

// buildBinaries compiles the program's commands into the bench-owned
// .bench_build/bin under the repository root.
func buildBinaries(root string) (demsortBin, gensortBin string, err error) {
	bin := filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", "", err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/demsort", "./cmd/gensort")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", "", fmt.Errorf("building cmd/demsort and cmd/gensort: %v\n%s", err, out)
	}
	return filepath.Join(bin, "demsort"), filepath.Join(bin, "gensort"), nil
}

// minTmpfsFree is what /dev/shm must have free to host the data
// directory: one workload's input plus one repetition's spill and
// output is about 0.5 GB.
const minTmpfsFree = 1 << 30

// defaultDataParent picks where the data directory goes: /dev/shm when
// it is a tmpfs with room, else .bench_build/data in the checkout. The
// reason is steadiness, measured on this sandbox: every repetition
// fsyncs 100 MB of part files, and on the shared virtio disk that meets
// other tenants' writeback and the disk's own write throttling — the
// same command swings between 0.8 s and 2.5 s depending on how much was
// written in the minutes before — while on tmpfs it stays within ±8 %.
// The file-store code path is the same either way.
func defaultDataParent(root string) string {
	const shm = "/dev/shm"
	var st syscall.Statfs_t
	if fsType(shm) == "tmpfs" && syscall.Statfs(shm, &st) == nil && st.Bavail*uint64(st.Bsize) >= minTmpfsFree {
		if probe, err := os.MkdirTemp(shm, "demsort-bench-probe-"); err == nil {
			os.Remove(probe)
			return shm
		}
	}
	return filepath.Join(root, ".bench_build", "data")
}

// newDataDir removes stale demsort-bench-* directories under parent
// (left by a killed invocation) and creates a fresh one.
func newDataDir(parent string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	stale, _ := filepath.Glob(filepath.Join(parent, "demsort-bench-*"))
	for _, d := range stale {
		os.RemoveAll(d)
	}
	return os.MkdirTemp(parent, "demsort-bench-")
}

// sample is one untraced repetition of the real pipeline.
type sample struct {
	WallS     float64 // launcher's "wall total:" (fleet wall)
	CPUS      float64 // user+sys of the launcher's process tree
	RSSMB     float64 // max RSS of any one process in that tree
	RankWallS float64 // slowest worker's own "records in Xs"
}

var (
	wallTotalRE = regexp.MustCompile(`(?m)^wall total: ([0-9.]+)s`)
	rankWallRE  = regexp.MustCompile(`(?m)^\[w\d+\] rank \d+: \d+ records in ([0-9.]+)s`)
)

// runInGroup runs cmd in its own process group under repTimeout and
// leaves no process of the group behind, whatever happened.
func runInGroup(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return err
	}
	pgid := cmd.Process.Pid
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(repTimeout):
		syscall.Kill(-pgid, syscall.SIGKILL)
		<-done
		err = fmt.Errorf("timeout after %v, process group killed", repTimeout)
	}
	// A launcher that died early can leave workers behind: kill the
	// group and wait until it is empty (bounded, in case nothing reaps
	// the orphans).
	for end := time.Now().Add(2 * time.Second); syscall.Kill(-pgid, syscall.SIGKILL) == nil && time.Now().Before(end); {
		time.Sleep(5 * time.Millisecond)
	}
	return err
}

// spawnMain is the -spawn helper: it runs argv as its only child,
// passes the output through, writes the child tree's resource usage to
// usageFile and exits with the child's code. It exists because a
// child's ru_maxrss starts at its parent's peak RSS at exec time: the
// launcher must be started by a process smaller than any worker, which
// this one is and the bench (spans, replay buffers) is not.
func spawnMain(usageFile string, argv []string) {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	err := cmd.Run()
	if cmd.ProcessState == nil {
		fatal(err)
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	fatal(writeJSON(usageFile, usage{
		CPUS:  tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		RSSMB: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}))
	os.Exit(cmd.ProcessState.ExitCode())
}

type usage struct {
	CPUS  float64 `json:"cpu_s"`
	RSSMB float64 `json:"rss_mb"`
}

// runProduct runs gensort file → cmd/demsort tcp launcher once and
// measures it from outside. The caller checks and removes outdir.
func (h *harness) runProduct(w workload, infile, outdir string) (sample, error) {
	usageFile := outdir + ".usage.json"
	defer os.Remove(usageFile)
	cmd := exec.Command(h.self, append([]string{"-spawn", usageFile, h.demsort}, w.launcherArgs(infile, outdir)...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := runInGroup(cmd); err != nil {
		return sample{}, fmt.Errorf("launcher: %v\n%s", err, tail(stderr.String(), 10))
	}
	m := wallTotalRE.FindSubmatch(stdout.Bytes())
	if m == nil {
		return sample{}, fmt.Errorf("launcher printed no 'wall total:' line\n%s", tail(stdout.String(), 10))
	}
	var s sample
	s.WallS, _ = strconv.ParseFloat(string(m[1]), 64)
	for _, rm := range rankWallRE.FindAllSubmatch(stdout.Bytes(), -1) {
		if v, _ := strconv.ParseFloat(string(rm[1]), 64); v > s.RankWallS {
			s.RankWallS = v
		}
	}
	raw, err := os.ReadFile(usageFile)
	if err != nil {
		return sample{}, err
	}
	var u usage
	if err := json.Unmarshal(raw, &u); err != nil {
		return sample{}, err
	}
	s.CPUS, s.RSSMB = u.CPUS, u.RSSMB
	return s, nil
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func tail(s string, lines int) string {
	ls := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(ls) > lines {
		ls = ls[len(ls)-lines:]
	}
	return strings.Join(ls, "\n")
}

// checkOutput is the bench's own valsort: the part files in rank order
// must hold exactly the input's records, sorted.
func checkOutput(outdir string, p int, want sortbench.Summary) error {
	sums := make([]sortbench.Summary, p)
	for rank := range sums {
		s, err := summarizeFile(filepath.Join(outdir, fmt.Sprintf("part-%03d", rank)))
		if err != nil {
			return err
		}
		sums[rank] = s
	}
	got := sortbench.Merge(sums)
	switch {
	case got.Records != want.Records:
		return fmt.Errorf("output has %d records, input %d", got.Records, want.Records)
	case got.Unsorted != 0:
		return fmt.Errorf("output has %d order violations", got.Unsorted)
	case got.Checksum != want.Checksum:
		return fmt.Errorf("output checksum %016x, input %016x", got.Checksum, want.Checksum)
	}
	return nil
}

// runTraced runs one traced repetition: this binary once per rank, the
// same process topology as the product. A lost port reservation is
// retried on fresh ports, as the launcher does.
func (h *harness) runTraced(w workload, infile, outdir string) ([]rankTrace, error) {
	for attempt := 1; ; attempt++ {
		ranks, err := h.runTracedOnce(w, infile, outdir)
		var ee *exec.ExitError
		if errors.As(err, &ee) && ee.ExitCode() == exitListenRace && attempt < 5 {
			os.RemoveAll(outdir)
			continue
		}
		return ranks, err
	}
}

func (h *harness) runTracedOnce(w workload, infile, outdir string) ([]rankTrace, error) {
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return nil, err
	}
	peers, err := tcp.ReservePorts(fleetP)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
	defer cancel()
	cmds := make([]*exec.Cmd, fleetP)
	errs := make(chan error, fleetP)
	stderr := make([]bytes.Buffer, fleetP)
	for rank := range cmds {
		args := append([]string{"-worker", "-rank", fmt.Sprint(rank), "-peers", strings.Join(peers, ",")}, w.sortArgs(infile, outdir)...)
		cmd := exec.CommandContext(ctx, h.self, args...)
		cmd.Stderr = &stderr[rank]
		cmds[rank] = cmd
		if err := cmd.Start(); err != nil {
			cancel()
			for _, c := range cmds[:rank] {
				c.Wait()
			}
			return nil, err
		}
	}
	for _, cmd := range cmds {
		go func() { errs <- cmd.Wait() }()
	}
	var first error
	for range cmds {
		if err := <-errs; err != nil && first == nil {
			first = err
			cancel() // the rest would only wait for their heartbeat timeout
		}
	}
	if first != nil {
		var msgs strings.Builder
		for rank := range stderr {
			msgs.WriteString(tail(stderr[rank].String(), 3))
		}
		return nil, fmt.Errorf("traced worker: %w\n%s", first, msgs.String())
	}
	ranks := make([]rankTrace, fleetP)
	for rank := range ranks {
		f, err := os.Open(spanFile(outdir, rank))
		if err != nil {
			return nil, err
		}
		err = gob.NewDecoder(f).Decode(&ranks[rank])
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return ranks, nil
}
