// Command bench is the host-measured benchmark of the real pipeline:
// cmd/gensort file → cmd/demsort -transport=tcp -p 4 -store=file →
// the bench's own valsort of the part files, on four named workloads.
// Tracing off gives the end-to-end metrics; a traced pass (one
// bench-hosted worker process per rank, timing decorators on the
// program's public seams) gives the per-layer ones; isolated replays of
// each layer's exported functions sit next to host ceilings. Nothing
// outside bench/ is changed or instrumented. See README.md.
//
// Usage (from the repository root):
//
//	bash bench/run.sh                         # all workloads, both passes, replays
//	bash bench/run.sh --workload canon_uniform --seed 3 --seconds 20 --trace 0
//	bash bench/run.sh -compare a.json b.json  # regression check of two reports
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

const (
	setupReps     = 3 // set-ups per invocation at least; setup_s is their median
	maxSetupReps  = 9 // a small input is set up again until setupBudget is spent
	setupBudget   = 2 * time.Second
	minReps       = 3 // timed repetitions, however short --seconds is
	minTracedReps = 2 // two, so that exact counts can be compared
	maxFailures   = 2 // a failing repetition can cost repTimeout: stop measuring after two
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		workerMain(os.Args[2:])
		return
	}
	if len(os.Args) > 3 && os.Args[1] == "-spawn" {
		spawnMain(os.Args[2], os.Args[3:])
	}
	workloadName := flag.String("workload", "", "run one workload and print the driver's JSON line last (default: all four)")
	seed := flag.Uint64("seed", 1, "workload seed; reaches only gensort -seed")
	seconds := flag.Int("seconds", 20, "seconds each pass measures for")
	trace := flag.Int("trace", -1, "0: end-to-end pass only; 1: traced pass and replays only; default both")
	dir := flag.String("dir", "", "parent of the data directory (default: /dev/shm when it is a tmpfs with room, else <repo>/.bench_build/data; a real device is for humans, never gated)")
	out := flag.String("out", "", "report directory (default <repo>/bench/out)")
	compare := flag.Bool("compare", false, "compare two report.json files: bench -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare a.json b.json"))
		}
		os.Exit(compareMain(flag.Arg(0), flag.Arg(1), os.Stdout))
	}

	selected := workloads
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		selected = []workload{w}
	}
	e2e, traced := *trace != 1, *trace != 0
	rep, err := run(selected, *seed, *seconds, e2e, traced, *dir, *out)
	fatal(err)
	rep.printTable(os.Stdout)
	if *workloadName != "" {
		line, _ := json.Marshal(rep.driverLine(e2e, traced))
		fmt.Printf("%s\n", line)
	}
}

// run builds the binaries, measures the selected workloads (and, with
// a traced pass, the replays) and writes report.json under out.
func run(selected []workload, seed uint64, seconds int, e2e, traced bool, dir, out string) (*report, error) {
	start := time.Now()
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	if dir == "" {
		dir = defaultDataParent(root)
	}
	if out == "" {
		out = filepath.Join(root, "bench", "out")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	h := &harness{}
	if h.demsort, h.gensort, err = buildBinaries(root); err != nil {
		return nil, err
	}
	if h.self, err = os.Executable(); err != nil {
		return nil, err
	}
	if h.dataDir, err = newDataDir(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(h.dataDir)

	rep := &report{
		Host: hostOf(h.dataDir),
		Regime: regimeInfo{Records: "Rec100 (100-byte records, 10-byte keys)", P: fleetP,
			Transport: "loopback tcp, local worker processes", Cache: "warm page cache (one discarded warm-up per workload)",
			Seed: seed, Seconds: seconds},
	}
	for _, w := range selected {
		wr, err := h.measure(w, seed, time.Duration(seconds)*time.Second, e2e, traced, out)
		if err != nil {
			return nil, err
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if traced {
		vals, ceilings, err := replayAll(h.dataDir, seed)
		if err != nil {
			return nil, err
		}
		rep.Replay = map[string]layerValue{}
		for _, def := range replayMetrics {
			rep.Replay[def.Name] = layerValue{Value: vals[def.Name], Unit: def.Unit, Moves: def.Moves}
		}
		rep.Ceilings = ceilings
	}
	rep.TotalWallS = time.Since(start).Seconds()
	return rep, writeJSON(filepath.Join(out, "report.json"), rep)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// findRoot locates the repository root: the nearest ancestor of the
// working directory that holds the demsort module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(mod), "module demsort\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no demsort module above the working directory; run from the repository")
		}
		dir = parent
	}
}

// measure prepares one workload's input, warms up, and runs the
// requested passes, each for the given time. Every repetition gets a
// fresh output/spill directory that is checked and removed outside the
// timed region.
func (h *harness) measure(w workload, seed uint64, pass time.Duration, e2e, traced bool, outDir string) (*workloadReport, error) {
	began := time.Now()
	wr := &workloadReport{
		Name: w.Name, Why: w.Why, InputBytes: w.inputBytes(),
		Command:  "demsort " + strings.Join(w.launcherArgs("<input>", "<out>"), " "),
		EndToEnd: map[string]series{},
	}
	infile := filepath.Join(h.dataDir, w.Name+".dat")
	defer os.Remove(infile)
	var setups []float64
	for i := 0; i < setupReps || (i < maxSetupReps && time.Since(began) < setupBudget); i++ {
		os.Remove(infile)
		d, err := prepareInput(h.gensort, w, seed, infile)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	want, err := summarizeFile(infile)
	if err != nil {
		return nil, err
	}
	if want.Records != w.Records {
		return nil, fmt.Errorf("%s: input holds %d records, want %d", w.Name, want.Records, w.Records)
	}

	repDir := filepath.Join(h.dataDir, "rep")
	fail := func(what string, err error) {
		wr.RunsFailed++
		wr.Failures = append(wr.Failures, what+": "+err.Error())
	}
	var samples []sample
	untraced := func(keep bool) {
		wr.RunsAttempt++
		s, err := h.runProduct(w, infile, repDir)
		if err == nil {
			err = checkOutput(repDir, fleetP, want)
		}
		os.RemoveAll(repDir)
		if err != nil {
			fail("untraced", err)
		} else if keep {
			samples = append(samples, s)
		}
	}
	var tracedRuns []map[string]float64
	var lastRanks []rankTrace // the Chrome trace shows the last traced repetition
	tracePath := filepath.Join(outDir, "trace-"+w.Name+".json")
	tracedRep := func() {
		wr.RunsAttempt++
		ranks, err := h.runTraced(w, infile, repDir)
		if err == nil {
			err = checkOutput(repDir, fleetP, want)
		}
		os.RemoveAll(repDir)
		if err == nil && ranks[0].N != w.Records {
			err = fmt.Errorf("sorter reports N=%d, want %d", ranks[0].N, w.Records)
		}
		if err != nil {
			fail("traced", err)
			return
		}
		tracedRuns = append(tracedRuns, layerMetrics(w, ranks))
		lastRanks = ranks
	}

	untraced(false) // warm-up: page cache, binaries, port range
	if e2e {
		for start := time.Now(); wr.RunsFailed < maxFailures && (len(samples) < minReps || time.Since(start) < pass); {
			untraced(true)
		}
	}
	if traced {
		// Untraced and traced repetitions alternate, so the overhead
		// compares like with like.
		for start := time.Now(); wr.RunsFailed < maxFailures && (len(tracedRuns) < minTracedReps || time.Since(start) < pass); {
			untraced(true)
			tracedRep()
		}
	}

	pick := func(f func(sample) float64) []float64 {
		vs := make([]float64, len(samples))
		for i, s := range samples {
			vs[i] = f(s)
		}
		return vs
	}
	byName := map[string][]float64{
		"sort_wall_s": pick(func(s sample) float64 { return s.WallS }),
		"cpu_s":       pick(func(s sample) float64 { return s.CPUS }),
		"peak_rss_mb": pick(func(s sample) float64 { return s.RSSMB }),
		"setup_s":     setups,
	}
	for _, def := range endToEnd {
		wr.EndToEnd[def.Name] = newSeries(def, byName[def.Name])
	}
	if wall := wr.EndToEnd["sort_wall_s"].Median; wall > 0 {
		wr.MBPerS = float64(w.inputBytes()) / 1e6 / wall
	}
	if len(tracedRuns) > 0 {
		wr.TracedReps = len(tracedRuns)
		wr.ChromeTrace = tracePath
		if err := writeChromeTrace(tracePath, len(tracedRuns), lastRanks); err != nil {
			return nil, err
		}
		wr.Layers = foldTraced(tracedRuns, median(pick(func(s sample) float64 { return s.RankWallS })))
	}
	wr.MeasureWallS = time.Since(began).Seconds()
	return wr, nil
}

// foldTraced reduces the traced repetitions to one value per metric
// (the median), marks whether the exact counts really repeated, and
// adds the one metric that needs the untraced repetitions too: tracing
// overhead against their rank wall.
func foldTraced(runs []map[string]float64, untracedRankWall float64) map[string]layerValue {
	out := map[string]layerValue{}
	val := func(name string) float64 {
		vs := make([]float64, len(runs))
		for i, r := range runs {
			vs[i] = r[name]
		}
		return median(vs)
	}
	for _, def := range tracedMetrics {
		v := layerValue{Value: val(def.Name), Unit: def.Unit, Moves: def.Moves}
		if def.Exact {
			same := true
			for _, r := range runs {
				same = same && r[def.Name] == runs[0][def.Name]
			}
			v.Exact = &same
		}
		out[def.Name] = v
	}
	if untracedRankWall > 0 {
		overhead := out["trace.overhead_pct"]
		overhead.Value = 100 * (val("trace.rank_wall_s")/untracedRankWall - 1)
		out["trace.overhead_pct"] = overhead
	}
	return out
}

// driverLine renders the invocation's single workload the way the
// driver reads it.
func (r *report) driverLine(e2e, traced bool) driverLine {
	wl := r.Workloads[0]
	line := driverLine{Attempted: wl.RunsAttempt, Failed: wl.RunsFailed, Metrics: map[string]driverValue{}}
	line.Correct = wl.RunsFailed == 0
	if e2e {
		for name, s := range wl.EndToEnd {
			line.Metrics[name] = driverValue{Value: s.Median, Unit: s.Unit}
		}
	}
	if traced {
		for name, v := range wl.Layers {
			line.Metrics[name] = driverValue{Value: v.Value, Unit: v.Unit}
		}
		for name, v := range r.Replay {
			line.Metrics[name] = driverValue{Value: v.Value, Unit: v.Unit}
		}
	}
	return line
}
