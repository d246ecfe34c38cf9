package main

// The tcp fleet launcher: spawns one worker process per rank — forked
// locally for loopback placements, over ssh for remote hostfile hosts
// — streams their logs with a per-rank prefix, and supervises the
// fleet. Failure handling is what makes it cluster-grade:
//
//   - first non-zero exit: the survivors get a short grace period to
//     abort on their own (a lost peer unwinds them with "lost rank"),
//     then are killed, and the launcher exits 1 promptly instead of
//     waiting for every rank to unwind;
//   - the ReservePorts close-then-rebind race: a worker that cannot
//     bind its reserved port exits with exitListenRace (tcp.ErrBind),
//     and the launcher reaps the fleet and retries on fresh ports.

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	demsort "demsort"
	"demsort/internal/blockio"
	"demsort/internal/cluster/tcp"
	"demsort/internal/job"
	"demsort/internal/sortbench"
)

// exitListenRace is the exit code a worker uses when its reserved
// listen address was grabbed by another process (tcp.ErrBind): the
// launcher's signal to retry the fleet on freshly reserved ports.
const exitListenRace = 3

// graceAfterFailure is how long survivors get to unwind on their own
// ("lost rank" aborts) after the first worker failure before the
// launcher kills them.
const graceAfterFailure = 2 * time.Second

// launcherOnly names the flags that stop at the launcher: they say how
// the fleet is placed and supervised, and -rank/-peers are what forward
// sets per worker.
var launcherOnly = map[string]bool{
	"p": true, "hostfile": true, "baseport": true, "ssh": true, "remote-exe": true, "restart": true,
	"rank": true, "peers": true,
}

// forward renders the worker command line for one rank: its -rank and
// -peers, then every other flag whose value — as parsed, or as the
// launcher has set it since — differs from the default. The values are
// space-free by construction (DEMSORT_ARGS and ssh split on spaces):
// main re-renders -fault through faulty.Fault.String, which writes a
// phase's spaces as _.
func (o *options) forward(rank int, peers []string) []string {
	args := []string{fmt.Sprintf("-rank=%d", rank), "-peers=" + strings.Join(peers, ",")}
	o.fs.VisitAll(func(f *flag.Flag) {
		if v := f.Value.String(); !launcherOnly[f.Name] && v != f.DefValue {
			args = append(args, "-"+f.Name+"="+v)
		}
	})
	return args
}

// prefixWriter tags each line one worker writes with its rank, so the
// interleaved logs of a fleet stay attributable, and keeps the worker's
// digest line. Each worker has its own instance; lines are written to
// the underlying writer whole.
type prefixWriter struct {
	mu     sync.Mutex
	w      io.Writer
	prefix string
	tail   []byte // unterminated partial line
	digest string // the last line that starts with "digest ", without its line end
}

func (pw *prefixWriter) Write(p []byte) (int, error) {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	n := len(p)
	pw.tail = append(pw.tail, p...)
	for {
		i := bytes.IndexByte(pw.tail, '\n')
		if i < 0 {
			return n, nil
		}
		line := pw.tail[:i+1]
		if bytes.HasPrefix(line, []byte("digest ")) {
			// A remote worker's lines come through ssh -tt's terminal,
			// which ends them in \r\n.
			pw.digest = strings.TrimRight(string(line), "\r\n")
		}
		if _, err := fmt.Fprintf(pw.w, "%s%s", pw.prefix, line); err != nil {
			return n, err
		}
		pw.tail = pw.tail[i+1:]
	}
}

// flush emits any unterminated final line.
func (pw *prefixWriter) flush() {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	if len(pw.tail) > 0 {
		fmt.Fprintf(pw.w, "%s%s\n", pw.prefix, pw.tail)
		pw.tail = nil
	}
}

// worker is one spawned rank process.
type worker struct {
	rank int
	cmd  *exec.Cmd
	out  *prefixWriter
	errW *prefixWriter
}

// spawnFleet starts one worker per placement. Loopback placements
// fork this binary (DEMSORT_ARGS keeps the test binary re-entrant,
// exactly like the single-host launcher always has); remote ones run
// -remote-exe on the placement's host via -ssh.
func spawnFleet(placements []tcp.Placement, peers []string, o *options) ([]*worker, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	remoteExe := o.remoteExe
	if remoteExe == "" {
		remoteExe = exe
	}
	workers := make([]*worker, 0, len(placements))
	for _, pl := range placements {
		args := o.forward(pl.Rank, peers)
		var cmd *exec.Cmd
		if pl.Local {
			cmd = exec.Command(exe, args...)
			// DEMSORT_ARGS lets the demsort test binary re-enter main()
			// with these flags; the release binary ignores it.
			cmd.Env = append(os.Environ(), "DEMSORT_ARGS="+strings.Join(args, " "))
		} else {
			// -tt forces a remote tty so killing the ssh client (fleet
			// reaping) HUPs the remote worker instead of orphaning it
			// on its listen port.
			cmd = exec.Command(o.ssh, append([]string{"-o", "BatchMode=yes", "-tt", pl.Host, remoteExe}, args...)...)
		}
		w := &worker{
			rank: pl.Rank,
			cmd:  cmd,
			out:  &prefixWriter{w: os.Stdout, prefix: fmt.Sprintf("[w%d] ", pl.Rank)},
			errW: &prefixWriter{w: os.Stderr, prefix: fmt.Sprintf("[w%d] ", pl.Rank)},
		}
		cmd.Stdout, cmd.Stderr = w.out, w.errW
		if err := cmd.Start(); err != nil {
			killFleet(workers)
			return nil, fmt.Errorf("spawning worker %d on %s: %w", pl.Rank, pl.Host, err)
		}
		workers = append(workers, w)
	}
	return workers, nil
}

func killFleet(workers []*worker) {
	for _, w := range workers {
		w.cmd.Process.Kill() // no-op error if already gone
	}
}

// waitFleet supervises the running fleet. Every worker failure is
// reported as it lands; after the first one, survivors get
// graceAfterFailure to abort on their own (the transport's internal
// abort propagation unwinds them), then whatever still runs is killed.
// Returns the first failure and the ranks that hit the listen-race
// exit code (so the launcher can log the contested addresses).
func waitFleet(workers []*worker) (firstErr error, raceRanks []int) {
	type exit struct {
		rank int
		err  error
	}
	ch := make(chan exit, len(workers))
	for _, w := range workers {
		go func(w *worker) { ch <- exit{w.rank, w.cmd.Wait()} }(w)
	}
	var grace <-chan time.Time
	reaped := false
	for done := 0; done < len(workers); {
		select {
		case e := <-ch:
			done++
			if e.err == nil {
				continue
			}
			if exitCode(e.err) == exitListenRace {
				raceRanks = append(raceRanks, e.rank)
			}
			if reaped && exitCode(e.err) == -1 {
				continue // our own kill, not a worker failure
			}
			fmt.Fprintf(os.Stderr, "worker %d: %v\n", e.rank, e.err)
			if firstErr == nil {
				firstErr = fmt.Errorf("worker %d: %w", e.rank, e.err)
				grace = time.After(graceAfterFailure)
			}
		case <-grace:
			fmt.Fprintf(os.Stderr, "reaping the remaining workers\n")
			killFleet(workers)
			reaped = true
			grace = nil
		}
	}
	for _, w := range workers {
		w.out.flush()
		w.errW.flush()
	}
	return firstErr, raceRanks
}

func exitCode(err error) int {
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
}

// place resolves where a launcher's ranks run: the hostfile's slots, or
// -p loopback ranks.
func (o *options) place() []tcp.Placement {
	if o.hostfile != "" {
		hosts, err := tcp.LoadHostfile(o.hostfile)
		fail(err)
		placements, err := tcp.PlaceRanks(hosts, o.baseport)
		fail(err)
		return placements
	}
	var placements []tcp.Placement
	for rank := 0; rank < o.p; rank++ {
		placements = append(placements, tcp.Placement{Rank: rank, Host: "127.0.0.1", Local: true})
	}
	return placements
}

// runLauncher drives a tcp fleet end to end over its placements: port
// assignment, spawn, supervision with listen-race retry, and the
// fleet's valsort verdict, from what its workers proved in flight.
func runLauncher(o *options, placements []tcp.Placement) {
	p := len(placements)
	// The workers would open the job with this very plan: a job it
	// refuses is refused here, once, before a port is reserved or a worker
	// spawned — so a restart never re-drives it. Workers sort records and
	// always write part files.
	sorter := job.Canonical
	if o.striped {
		sorter = job.Striped
	}
	if _, err := job.NewPlan(job.Shape{Sorter: sorter, P: p, MemElems: o.mem, BlockBytes: o.block,
		ElemSize: demsort.Rec100Codec{}.Size(), NPerPE: o.n, Randomize: o.randomize, Collected: true}); err != nil {
		fail(fmt.Errorf("demsort: %w", err))
	}

	if o.outdir == "" {
		o.outdir = "demsort-out"
	}
	fail(os.MkdirAll(o.outdir, 0o755))
	if o.store == "file" {
		o.resolveWorkdir()
	}
	// Restartable jobs checkpoint from the first incarnation on (a
	// restart can only resume what a previous incarnation committed);
	// ram-backed or striped fleets restart from scratch instead.
	if o.restart > 0 && o.store == "file" && !o.striped {
		o.durable = true
	}
	// Standalone `demsort -resume`: adopt the on-disk job — scan the
	// surviving manifests and come back one epoch above the newest.
	if o.resume {
		maxEpoch := -1
		for rank := 0; rank < o.p; rank++ {
			if man, err := blockio.LoadManifest(o.workdir, rank); err == nil && man.Epoch > maxEpoch {
				maxEpoch = man.Epoch
			}
		}
		if o.epoch <= maxEpoch {
			o.epoch = maxEpoch + 1
		}
		fmt.Printf("resuming job %q from %s at epoch %d\n", o.jobid, o.workdir, o.epoch)
	}

	// Listen-race retries back off with jitter instead of immediately
	// re-reserving: the contention that stole one port (another test
	// fleet, a mass of short-lived dials) rarely clears in microseconds,
	// and stampeding back in lockstep just re-rolls the same dice.
	const maxAttempts = 5
	backoff := tcp.NewBackoff(50*time.Millisecond, time.Second, uint64(os.Getpid()))
	start := time.Now()
	var workers []*worker
	for attempt := 1; ; attempt++ {
		// Assign the launcher-reserved ephemeral ports (loopback
		// placements without an explicit hostfile port).
		peers := make([]string, p)
		var ephemeral []int
		for i, pl := range placements {
			if pl.Listen == "" {
				ephemeral = append(ephemeral, i)
			} else {
				peers[i] = pl.Listen
			}
		}
		if len(ephemeral) > 0 {
			addrs, err := tcp.ReservePorts(len(ephemeral))
			fail(err)
			for j, i := range ephemeral {
				peers[i] = addrs[j]
			}
		}
		fmt.Printf("launching %d workers on %s\n", p, strings.Join(peers, ","))
		var err error
		workers, err = spawnFleet(placements, peers, o)
		fail(err)
		firstErr, raceRanks := waitFleet(workers)
		if firstErr == nil {
			break
		}
		if len(raceRanks) > 0 && len(ephemeral) > 0 && attempt < maxAttempts {
			for _, r := range raceRanks {
				fmt.Fprintf(os.Stderr, "attempt %d/%d: reserved address %s was taken before rank %d bound it\n",
					attempt, maxAttempts, peers[r], r)
			}
			wait := backoff.Next()
			fmt.Fprintf(os.Stderr, "retrying with fresh ports in %v\n", wait.Round(time.Millisecond))
			time.Sleep(wait)
			continue
		}
		// Worker death with restarts left: re-drive the job as a new
		// incarnation. A durable fleet resumes from the last committed
		// phase on the surviving workdir; otherwise it starts over. The
		// fault spec is not re-armed — it modelled the crash that
		// already happened, and a deterministic fault would just kill
		// the replacement fleet at the same call.
		if o.restart > 0 {
			o.restart--
			o.epoch++
			o.fault = ""
			if o.durable {
				o.resume = true
				fmt.Printf("re-admitting workers at job epoch %d (resuming from last committed phase)\n", o.epoch)
			} else {
				fmt.Printf("restarting job from scratch at job epoch %d\n", o.epoch)
			}
			continue
		}
		fmt.Fprintf(os.Stderr, "fleet failed: %v\n", firstErr)
		os.Exit(1)
	}
	wall := time.Since(start).Seconds()

	digests := make([]string, p)
	for _, w := range workers {
		digests[w.rank] = w.out.digest
	}
	got, want, err := mergeDigests(digests)
	fail(err)
	verdictRecords(got, want)
	fmt.Printf("wall total: %.3fs (%.2f MB/s across %d processes)\n",
		wall, float64(got.Records)*100/1e6/wall, p)
}

// digestFormat is a worker's proof of its share of the run, the one
// line the launcher validates the fleet from: its input's record count
// and checksum (in-from says whether the sort's reads or a resumed
// rank's own pass over its tile folded them), then its output's count,
// order violations, duplicates, checksum, and first and last key
// (quoted; "" for an empty partition).
const digestFormat = "digest rank=%d in-from=%s in-records=%d in-checksum=%016x " +
	"out-records=%d out-unsorted=%d out-duplicates=%d out-checksum=%016x out-first=%q out-last=%q"

func digestLine(rank int, in sortbench.Summary, from string, out sortbench.Summary) string {
	return fmt.Sprintf(digestFormat, rank, from, in.Records, in.Checksum,
		out.Records, out.Unsorted, out.Duplicate, out.Checksum, out.FirstKey, out.LastKey)
}

// mergeDigests validates a fleet from its workers' digest lines, one per
// rank in rank order: the output summaries merged in rank order
// (sortbench.Merge adds the order checks across partition boundaries),
// and the input's records and checksum summed. A missing or malformed
// line, or another rank's, is an error naming the rank.
func mergeDigests(lines []string) (got, want sortbench.Summary, err error) {
	outs := make([]sortbench.Summary, len(lines))
	for rank, line := range lines {
		var in sortbench.Summary
		var r int
		var from, first, last string
		out := &outs[rank]
		_, err = fmt.Sscanf(line, digestFormat, &r, &from, &in.Records, &in.Checksum,
			&out.Records, &out.Unsorted, &out.Duplicate, &out.Checksum, &first, &last)
		if err == nil && r != rank {
			err = fmt.Errorf("it is rank %d's", r)
		}
		if err != nil {
			return got, want, fmt.Errorf("demsort: rank %d: no digest line (%q: %w)", rank, line, err)
		}
		if first != "" {
			out.FirstKey, out.LastKey = []byte(first), []byte(last)
		}
		want.Records += in.Records
		want.Checksum += in.Checksum
	}
	return sortbench.Merge(outs), want, nil
}
