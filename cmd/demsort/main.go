// Command demsort sorts a workload with CANONICALMERGESORT (or the
// globally striped variant) and prints the per-phase breakdown,
// validation verdict and throughput — a one-shot view of the system.
//
// Two transports are available:
//
//   - -transport=sim (default): the whole machine is simulated in this
//     process and per-phase times come from the calibrated
//     virtual-time cost model (the paper's figures);
//   - -transport=tcp: one OS process per PE over real sockets, and
//     per-phase times are wall-clock. Without -rank, demsort acts as a
//     launcher: it spawns the fleet (forking -p local workers, or
//     placing ranks across machines from a -hostfile, remote ones over
//     ssh), supervises it — first failure reaps the fleet, a lost
//     reserved port retries on fresh ones — and valsort-validates the
//     combined output, local or remote, from the digest line each
//     worker prints: a CRC-32C valsort of its input and of its output,
//     folded as the bytes pass, so nothing is read a third time. With
//     -rank/-peers, it is one worker of a (possibly multi-host) machine.
//
// The tcp transport (and sim with -workload=records) sorts
// SortBenchmark-style 100-byte records: streamed in-process
// gensort-equivalently from -seed, or from a gensort file via -infile —
// either way run formation reads the input tile in place, block at a
// time (core.Config.Source), never through an in-RAM slice or a staged
// copy on the block store. Sorted partitions are written to -outdir as
// raw records (valsort-compatible), streamed block-at-a-time by the pass that
// produces them (Config.Sink) into part-%03d.tmp and renamed on success, so
// outdir never holds a truncated part. With -store=file the blocks
// themselves live on disk under -workdir, so the data never has to
// fit in RAM: end-to-end memory is O(m) per worker. -striped runs the
// globally striped algorithm (Section III) on every one of these
// scenarios, including multi-process tcp fleets: its merge sends each
// batch straight to the output's owners, so its part files are the
// canonical block ranges of the sorted output and concatenate to the
// sorted sequence just like the canonical sorter's.
//
// Usage:
//
//	demsort [-p 8] [-n 24576] [-mem 8192] [-block 1024]
//	        [-workload uniform|worstcase|reversed|narrow|allequal|hotkey|sorted|records]
//	        [-randomize=true] [-striped] [-seed 1]
//	        [-transport sim|tcp] [-infile data] [-outdir out]
//	        [-store ram|file] [-workdir dir] [-pprof dir]
//	        [-hostfile hosts.txt] [-baseport 7070] [-ssh ssh] [-remote-exe path]
//	        [-rank R -peers host:port,host:port,...]
//
// Examples:
//
//	demsort                                      # simulated, KV16 figures workload
//	demsort -workload=records -outdir out        # simulated, gensort records
//	demsort -transport=tcp -p 4 -outdir out      # 4 real worker processes on localhost
//	demsort -transport=tcp -hostfile hosts.txt -store=file -outdir out   # a real cluster
//	demsort -transport=tcp -rank 1 -peers hostA:7001,hostB:7002  # one PE of a 2-host machine
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	demsort "demsort"
	"demsort/internal/blockio"
	"demsort/internal/cluster"
	"demsort/internal/cluster/faulty"
	"demsort/internal/cluster/tcp"
	"demsort/internal/elem"
	"demsort/internal/job"
	"demsort/internal/sortbench"
	"demsort/internal/workload"
)

// options is every demsort flag, declared once: the launcher and its
// workers parse the same set, and the launcher hands its own — with what
// it decided since (outdir, workdir, durability, epoch, resume) — on to
// the workers (forward).
type options struct {
	fs *flag.FlagSet

	p, block, baseport, rank, restart, epoch int
	n, mem                                   int64
	seed                                     uint64

	randomize, overlap, striped, resume, durable bool

	kind, transport, store, jobid, fault, peers       string
	infile, outdir, workdir, hostfile, ssh, remoteExe string
	pprof                                             string
}

func parseOptions(args []string) *options {
	fs := flag.NewFlagSet("demsort", flag.ExitOnError)
	o := &options{fs: fs}
	fs.IntVar(&o.p, "p", 8, "number of PEs (cluster nodes / worker processes)")
	fs.Int64Var(&o.n, "n", 24576, "elements (records) per PE")
	fs.Int64Var(&o.mem, "mem", 8192, "internal memory budget per PE (elements)")
	fs.IntVar(&o.block, "block", 1024, "block size in bytes")
	fs.StringVar(&o.kind, "workload", "uniform", "sim input: a KV16 distribution (uniform, worstcase, reversed, narrow, allequal, hotkey, sorted) or records, SortBenchmark 100-byte records (what -infile and -transport=tcp always sort)")
	fs.BoolVar(&o.randomize, "randomize", true, "shuffle input blocks before run formation")
	fs.BoolVar(&o.overlap, "overlap", true, "overlap I/O and communication with compute (pipelined all-to-all, async load/collect)")
	fs.BoolVar(&o.striped, "striped", false, "use the globally striped algorithm (Section III)")
	fs.Uint64Var(&o.seed, "seed", 1, "random seed")
	fs.StringVar(&o.transport, "transport", "sim", "cluster backend: sim (virtual time) or tcp (real processes)")
	fs.StringVar(&o.infile, "infile", "", "gensort input file (implies -workload=records; rank r takes records [r·n, (r+1)·n))")
	fs.StringVar(&o.outdir, "outdir", "", "write sorted partitions here as part-%03d (raw records)")
	fs.StringVar(&o.store, "store", "ram", "block store backing each PE: ram, or file (disk-resident blocks; data need not fit in RAM)")
	fs.StringVar(&o.workdir, "workdir", "", "spill directory for -store=file (default: <outdir>/work, or a temp dir in worker mode)")
	fs.StringVar(&o.hostfile, "hostfile", "", "launch the fleet from a hostfile ('host[:port] [slots=k]' per line; total slots override -p)")
	fs.IntVar(&o.baseport, "baseport", 7070, "first listen port for hostfile hosts without an explicit port")
	fs.StringVar(&o.ssh, "ssh", "ssh", "command used to spawn workers on remote hostfile hosts")
	fs.StringVar(&o.remoteExe, "remote-exe", "", "demsort binary path on remote hosts (default: this binary's path)")
	fs.IntVar(&o.rank, "rank", -1, "this process's PE rank (tcp worker mode; -1 = launch workers)")
	fs.StringVar(&o.peers, "peers", "", "comma-separated host:port listen addresses, one per rank (tcp)")
	fs.StringVar(&o.fault, "fault", "", "deterministic fault injection, e.g. rank=2,action=die,op=AllToAllv,phase=all-to-all (see internal/cluster/faulty)")
	fs.IntVar(&o.restart, "restart", 0, "launcher: restart the fleet up to N times after a worker failure (resuming from the last committed phase when -store=file)")
	fs.BoolVar(&o.resume, "resume", false, "resume a job from the committed manifests in -workdir instead of re-reading input")
	fs.BoolVar(&o.durable, "durable", false, "commit phase checkpoints (durable spill files + per-rank manifests in -workdir)")
	fs.StringVar(&o.jobid, "jobid", "demsort", "job identity carried in manifests and the tcp handshake")
	fs.IntVar(&o.epoch, "epoch", 0, "fleet incarnation number (set by the launcher on restarts)")
	fs.StringVar(&o.pprof, "pprof", "", "tcp workers write their CPU and heap profiles to <dir>/cpu-<rank>.prof and <dir>/heap-<rank>.prof")
	fs.Parse(args)
	return o
}

func main() {
	o := parseOptions(os.Args[1:])
	if o.store != "ram" && o.store != "file" {
		fail(fmt.Errorf("demsort: unknown store %q (want ram or file)", o.store))
	}
	kinds := []string{"records"}
	for _, k := range workload.Kinds() {
		kinds = append(kinds, string(k))
	}
	if !slices.Contains(kinds, o.kind) {
		fail(fmt.Errorf("demsort: unknown workload %q (want one of %s)", o.kind, strings.Join(kinds, ", ")))
	}
	// P as the sort sees it: a worker's -peers, a launcher's placements.
	var placements []tcp.Placement
	if o.transport == "tcp" && o.rank >= 0 {
		o.p = len(strings.Split(o.peers, ","))
	} else if o.transport == "tcp" {
		placements = o.place()
		o.p = len(placements)
	}
	fail(o.checkInfile(placements))
	o.durable = o.durable || o.resume
	faults, err := faulty.ParseSpec(o.fault)
	fail(err)
	// Re-rendered from the parse, so forward never hands a worker a space.
	specs := make([]string, len(faults))
	for i, f := range faults {
		specs[i] = f.String()
	}
	o.fault = strings.Join(specs, ";")
	if o.durable && o.store != "file" {
		fail(fmt.Errorf("demsort: -durable/-resume need -store=file (checkpoints describe on-disk blocks)"))
	}
	if o.durable && o.striped {
		fail(fmt.Errorf("demsort: -durable/-resume are not supported with -striped (the striped sorter has no checkpoint plane)"))
	}
	switch o.transport {
	case "sim":
		if o.kind == "records" || o.infile != "" {
			runRecordsSim(o)
			return
		}
		runKV16Sim(o)
	case "tcp":
		if o.rank < 0 {
			runLauncher(o, placements)
			return
		}
		if o.peers == "" {
			fail(fmt.Errorf("demsort: tcp worker mode needs -peers"))
		}
		runTCPWorker(o)
	default:
		fail(fmt.Errorf("demsort: unknown transport %q (want sim or tcp)", o.transport))
	}
}

// resolveWorkdir pins the spill directory of a file-backed run: the
// -workdir flag, else <outdir>/work, else a per-process temp dir.
func (o *options) resolveWorkdir() string {
	if o.workdir == "" {
		if o.outdir != "" {
			o.workdir = filepath.Join(o.outdir, "work")
		} else {
			o.workdir = filepath.Join(os.TempDir(), fmt.Sprintf("demsort-work-%d", os.Getpid()))
		}
	}
	return o.workdir
}

// newStoreFactory maps the -store/-workdir flags to a per-rank block
// store constructor (nil = the default RAM store). Durable runs get
// stores whose spill files survive Close-on-abort, the substrate the
// checkpoint manifests describe.
func (o *options) newStoreFactory() func(rank int) (blockio.Store, error) {
	if o.store != "file" {
		return nil
	}
	if o.durable {
		return blockio.DurableFileStoreFactory(o.resolveWorkdir(), o.block)
	}
	return blockio.FileStoreFactory(o.resolveWorkdir(), o.block)
}

// checkpoint renders the durable-run flags as a core checkpoint config
// (zero value when the run is not durable).
func (o *options) checkpoint() demsort.CheckpointOptions {
	if !o.durable {
		return demsort.CheckpointOptions{}
	}
	return demsort.CheckpointOptions{
		Dir:    o.resolveWorkdir(),
		JobID:  o.jobid,
		Epoch:  o.epoch,
		Resume: o.resume,
	}
}

// ---------------------------------------------------------------------
// Record workloads (gensort-equivalent).
// ---------------------------------------------------------------------

// source returns the per-rank streaming input (core.Config.Source):
// a section of the gensort file when given, else an in-process
// generator producing the same tile the gensort command would — either
// way the tile is never materialized in RAM, and both can be read at an
// offset, so the sort reads it in place. The gensort file stays open for
// the life of the process (run formation reads its SectionReaders).
func (o *options) source() func(rank int) (io.Reader, int64, error) {
	if o.infile == "" {
		return func(rank int) (io.Reader, int64, error) {
			return sortbench.NewReader(o.seed, int64(rank)*o.n, o.n), o.n, nil
		}
	}
	var f *os.File
	return func(rank int) (io.Reader, int64, error) {
		if f == nil {
			var err error
			if f, err = os.Open(o.infile); err != nil {
				return nil, 0, err
			}
		}
		return io.NewSectionReader(f, int64(rank)*o.n*100, o.n*100), o.n, nil
	}
}

// checkInfile refuses an -infile shorter than the P tiles of -n records
// it must hold, before a fleet is launched or a byte of it is read: a
// section of a file reports its nominal size, so a short file would
// otherwise fail in the middle of run formation. A launcher with ranks
// on other hosts leaves the check to their workers.
func (o *options) checkInfile(placements []tcp.Placement) error {
	fi, err := os.Stat(o.infile)
	switch {
	case o.infile == "" || slices.ContainsFunc(placements, func(pl tcp.Placement) bool { return !pl.Local }):
		return nil
	case err != nil:
		return fmt.Errorf("demsort: -infile: %w", err)
	case fi.Size() < int64(o.p)*o.n*100:
		return fmt.Errorf("demsort: -infile %s holds %d bytes; -p %d ranks of -n %d records need %d (shorten -n or -p)",
			o.infile, fi.Size(), o.p, o.n, int64(o.p)*o.n*100)
	}
	return nil
}

// partFile streams one rank's sorted partition to outdir/part-%03d.
// It writes to part-%03d.tmp and renames on Close, so an aborted or
// reaped worker never leaves a truncated part file behind — outdir
// only ever contains complete partitions. The buffer is bufio's default:
// a Sink block at least that large goes straight to the file, smaller
// ones coalesce.
type partFile struct {
	f    *os.File
	w    *bufio.Writer
	path string
}

func newPartFile(outdir string, rank int) (*partFile, error) {
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outdir, fmt.Sprintf("part-%03d", rank))
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return nil, err
	}
	return &partFile{f: f, w: bufio.NewWriter(f), path: path}, nil
}

func (p *partFile) Write(b []byte) error {
	_, err := p.w.Write(b)
	return err
}

// Close flushes, fsyncs and atomically publishes the part file:
// contents are durable before the rename and the rename is durable
// before Close returns (directory fsync), so a published partition
// survives a host crash — the same discipline as checkpoint manifests.
func (p *partFile) Close() error {
	if err := p.w.Flush(); err != nil {
		return err
	}
	if err := p.f.Sync(); err != nil {
		return err
	}
	if err := p.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(p.path+".tmp", p.path); err != nil {
		return err
	}
	return blockio.SyncDir(filepath.Dir(p.path))
}

// configure applies the options every sorter shares to a freshly
// defaulted common configuration.
func (o *options) configure(c *job.Common) {
	c.Model = demsort.ScaledModel(o.block)
	c.Randomize = o.randomize
	c.Overlap = o.overlap
	c.Seed = o.seed
}

// sortRecords sorts gensort records with the chosen algorithm — input
// from the Source and output to the Sink that configure sets, on its
// Machine if it sets one — and returns the run's statistics and its
// headline.
func (o *options) sortRecords(p int, configure func(*job.Common)) (*job.Stats, string) {
	if o.striped {
		opts := demsort.NewStripedOptions(p, o.mem, o.block)
		configure(&opts.Common)
		res, err := demsort.SortStriped[elem.Rec100](demsort.Rec100Codec{}, opts, nil)
		fail(err)
		return &res.Stats, fmt.Sprintf("globally striped mergesort[records]: P=%d N=%d (%d runs, %d merge batches of up to %d blocks per PE)",
			res.P, res.N, res.Runs, res.Batches, res.Quota)
	}
	opts := demsort.NewOptions(p, o.mem, o.block)
	configure(&opts.Common)
	opts.Checkpoint = o.checkpoint()
	res, err := demsort.Sort[elem.Rec100](demsort.Rec100Codec{}, opts, nil)
	fail(err)
	return &res.Stats, fmt.Sprintf("CanonicalMergeSort[records]: P=%d N=%d (R=%d runs, k=%d sub-operations)",
		res.P, res.N, res.Runs, res.SubOps)
}

// recordSinks is where a records run's sorted partitions go: each
// locally hosted rank's stream is valsorted as it passes (Accum) and,
// when outdir is set, written to its part file. Distinct ranks stream
// concurrently on the sim backend; each writes only its own slot.
type recordSinks struct {
	accums []sortbench.Accum
	parts  []*partFile // nil without an outdir, and for ranks hosted elsewhere
}

func newRecordSinks(p int, outdir string, local func(rank int) bool) *recordSinks {
	s := &recordSinks{accums: make([]sortbench.Accum, p), parts: make([]*partFile, p)}
	for rank := range p {
		if outdir != "" && local(rank) {
			pf, err := newPartFile(outdir, rank)
			fail(err)
			s.parts[rank] = pf
		}
	}
	return s
}

func (s *recordSinks) sink(rank int, b []byte) error {
	s.accums[rank].Add(b)
	if s.parts[rank] != nil {
		return s.parts[rank].Write(b)
	}
	return nil
}

// publish publishes rank's part file, if it writes one.
func (s *recordSinks) publish(rank int) error {
	if s.parts[rank] == nil {
		return nil
	}
	return s.parts[rank].Close()
}

// printPhases prints the per-phase breakdown and the modelled total of
// either sorter's run.
func printPhases(st *job.Stats, nBytes int64) {
	for _, ph := range st.PhaseNames {
		read, written := st.PhaseBytes(ph)
		fmt.Printf("  %-20s %10.4fs   io %s\n", ph, st.MaxWall(ph), fmtIO(read, written, nBytes))
	}
}

func printTotal(st *job.Stats, nBytes int64) {
	fmt.Printf("modelled total: %.4fs (%.2f MB/s equivalent)\n",
		st.TotalWall(), float64(nBytes)/1e6/st.TotalWall())
}

// runRecordsSim sorts gensort records on the simulated machine — the
// reference run the tcp backend's output must match bit for bit.
func runRecordsSim(o *options) {
	stats, headline, got, want := o.simRecords(nil)
	fmt.Println(headline)
	printPhases(stats, stats.N*100)
	verdictRecords(got, want)
	printTotal(stats, stats.N*100)
}

// simRecords runs runRecordsSim's sort and returns its statistics, its
// headline, and the valsort digests it proves itself by: of the output,
// folded as each rank's blocks pass its Sink (behind wrap, when set),
// merged in rank order; and of the input, tallied as the sort read it.
// Input arrives through the streaming Source and output leaves through
// the per-rank Sinks, so no tile or partition is ever resident in RAM.
func (o *options) simRecords(wrap func(sink func(int, []byte) error) func(int, []byte) error) (
	stats *job.Stats, headline string, got, want sortbench.Summary) {
	sinks := newRecordSinks(o.p, o.outdir, func(int) bool { return true })
	sink := sinks.sink
	if wrap != nil {
		sink = wrap(sink)
	}
	src, tallies := countingSource(o.p, o.source())
	stats, headline = o.sortRecords(o.p, func(c *job.Common) {
		o.configure(c)
		c.NewStore = o.newStoreFactory()
		c.Source = src
		c.Sink = sink
	})
	outs := make([]sortbench.Summary, o.p)
	for rank := range outs {
		fail(sinks.publish(rank))
		outs[rank] = sinks.accums[rank].Summary()
		in, _ := o.inputDigest(rank, &tallies[rank])
		want.Records += in.Records
		want.Checksum += in.Checksum
	}
	return stats, headline, sortbench.Merge(outs), want
}

// ---------------------------------------------------------------------
// tcp worker: one PE of a real-process machine.
// ---------------------------------------------------------------------

func runTCPWorker(o *options) {
	rank, peers := o.rank, strings.Split(o.peers, ",")
	if o.pprof != "" {
		defer profile(o.pprof, rank)()
	}
	tm, err := tcp.New(tcp.Config{
		Rank:       rank,
		Peers:      peers,
		BlockBytes: o.block,
		MemElems:   o.mem,
		NewStore:   o.newStoreFactory(),
		JobID:      o.jobid,
		Epoch:      o.epoch,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, tcp.ErrBind) {
			// The reserved port was grabbed before we bound it; tell
			// the launcher so it retries the fleet on fresh ports
			// instead of the peers dialing a dead address for 30s.
			os.Exit(exitListenRace)
		}
		os.Exit(1)
	}
	defer tm.Close()

	// Deterministic fault injection (chaos tests): the spec is shared
	// by the whole fleet and each fault names the rank it lives on, so
	// forwarding it verbatim to every worker is correct.
	var m cluster.Machine = tm
	if o.fault != "" {
		faults, ferr := faulty.ParseSpec(o.fault)
		fail(ferr)
		m = faulty.Wrap(tm, o.seed, faults...)
	}

	// The input streams in via Source (gensort file section or
	// in-process generator) and the sorted partition streams out via
	// Sink to part-%03d.tmp, renamed on success: neither the tile nor
	// the output ever has to fit in this process's RAM, and outdir
	// never holds a truncated part. Both are digested as they pass — the
	// Source counts every byte the sort pulls from the input, so a
	// resumed run can prove it re-read nothing (the resume acceptance
	// test greps the line below) — and the digest line at the end is the
	// launcher's proof of this rank's share of the run.
	sinks := newRecordSinks(len(peers), o.outdir, func(r int) bool { return r == rank })
	src, tallies := countingSource(len(peers), o.source())

	start := time.Now()
	stats, headline := o.sortRecords(len(peers), func(c *job.Common) {
		o.configure(c)
		c.Machine = m
		c.Source = src
		c.Sink = sinks.sink
	})
	// The run count, the sub-operations or the merge batches are the same
	// on every rank: one says so, as the sim path does.
	if rank == 0 {
		fmt.Println(headline)
	}
	// Every second of the rank's wall gets a name: the phases the sort
	// accounted (a resumed run never entered the committed ones, so they
	// have no entry) and the part-file publish, which only this process
	// sees.
	var phases []string
	for _, ph := range slices.Concat([]string{job.PhaseLoad}, stats.PhaseNames, []string{job.PhaseCollect}) {
		if st := stats.PerPE[rank][ph]; st != nil {
			phases = append(phases, fmt.Sprintf("%s %.3fs", ph, st.Wall))
		}
	}
	if o.outdir != "" {
		t0 := time.Now()
		fail(sinks.publish(rank))
		phases = append(phases, fmt.Sprintf("publish %.3fs", time.Since(t0).Seconds()))
	}
	// The rank's share of the output is its canonical partition, or its
	// block range of the striped output.
	fmt.Printf("rank %d: read %d input bytes\n", rank, tallies[rank].bytes.Load())
	fmt.Printf("rank %d: %d records in %.3fs (%s)\n",
		rank, stats.OutputLens[rank], time.Since(start).Seconds(), strings.Join(phases, " | "))
	in, from := o.inputDigest(rank, &tallies[rank])
	fmt.Println(digestLine(rank, in, from, sinks.accums[rank].Summary()))
}

// profile starts this worker's CPU profile, dir/cpu-<rank>.prof, and
// returns what stops it and writes the heap profile, dir/heap-<rank>.prof
// (-pprof).
func profile(dir string, rank int) (stop func()) {
	fail(os.MkdirAll(dir, 0o755))
	create := func(kind string) *os.File {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%d.prof", kind, rank)))
		fail(err)
		return f
	}
	cpu := create("cpu")
	fail(pprof.StartCPUProfile(cpu))
	return func() {
		pprof.StopCPUProfile()
		fail(cpu.Close())
		heap := create("heap")
		fail(pprof.WriteHeapProfile(heap))
		fail(heap.Close())
	}
}

// inputTally is what the sort read of one rank's input: its bytes, and
// the records among them counted and checksummed (sortbench.Tally).
// Run formation's reads arrive concurrently, so every field is atomic.
type inputTally struct {
	bytes, records atomic.Int64
	checksum       atomic.Uint64
}

// countingSource wraps a Source so every byte actually read from the
// input of each of the p ranks is tallied — the evidence behind "resume
// re-reads nothing" and "a fresh run reads its tile once", and the
// input's half of the run's valsort, folded as the bytes pass. The
// wrapper stays a ReaderAt with Size, so the sort reads the input in
// place; a source that cannot be read at an offset is an error, not a
// silent fall back to staging.
func countingSource(p int, src func(rank int) (io.Reader, int64, error)) (func(rank int) (io.Reader, int64, error), []inputTally) {
	tallies := make([]inputTally, p)
	return func(rank int) (io.Reader, int64, error) {
		r, cnt, err := src(rank)
		if err != nil {
			return nil, 0, err
		}
		at, ok := r.(interface {
			io.ReaderAt
			Size() int64
		})
		if !ok {
			return nil, 0, fmt.Errorf("rank %d: input %T cannot be read at an offset", rank, r)
		}
		return io.NewSectionReader(&countingReader{at: at, t: &tallies[rank]}, 0, at.Size()), cnt, nil
	}, tallies
}

// countingReader tallies the records read through at. A read that is
// not record-aligned would split a record between two tallies, so it is
// an error.
type countingReader struct {
	at io.ReaderAt
	t  *inputTally
}

func (c *countingReader) ReadAt(p []byte, off int64) (int, error) {
	if off%100 != 0 || len(p)%100 != 0 {
		return 0, fmt.Errorf("input read of %d bytes at offset %d is not record-aligned", len(p), off)
	}
	n, err := c.at.ReadAt(p, off)
	records, checksum := sortbench.Tally(p[:n])
	c.t.bytes.Add(int64(n))
	c.t.records.Add(records)
	c.t.checksum.Add(checksum)
	return n, err
}

// inputDigest returns the digest of rank's input and where it came
// from: "sort", the tally of what the sort read; or "tile" when the sort
// read nothing — a rank resumed past run formation — and the tile was
// digested here, outside the tally, which keeps "read 0 input bytes"
// true.
func (o *options) inputDigest(rank int, t *inputTally) (sortbench.Summary, string) {
	if t.bytes.Load() > 0 {
		return sortbench.Summary{Records: t.records.Load(), Checksum: t.checksum.Load()}, "sort"
	}
	r, _, err := o.source()(rank)
	fail(err)
	s, err := sortbench.SummarizeReader(r)
	fail(err)
	return s, "tile"
}

// ---------------------------------------------------------------------
// KV16 simulated mode (the original figures workload).
// ---------------------------------------------------------------------

func runKV16Sim(o *options) {
	p := o.p
	input := workload.Generate(workload.Kind(o.kind), p, int(o.n), o.seed)
	var ref []demsort.KV16
	for _, part := range input {
		ref = append(ref, part...)
	}
	nBytes := int64(len(ref)) * 16

	var stats *job.Stats
	var ok bool
	if o.striped {
		opts := demsort.NewStripedOptions(p, o.mem, o.block)
		o.configure(&opts.Common)
		opts.KeepOutput = true
		res, err := demsort.SortStriped[demsort.KV16](demsort.KV16Codec{}, opts, input)
		fail(err)
		fmt.Printf("globally striped mergesort: P=%d N=%d (%d runs, %d merge batches of up to %d blocks per PE)\n",
			res.P, res.N, res.Runs, res.Batches, res.Quota)
		ok = workload.Checksum(ref) == workload.Checksum(res.Output)
		for i := 1; i < len(res.Output); i++ {
			ok = ok && res.Output[i].Key >= res.Output[i-1].Key
		}
		stats = &res.Stats
	} else {
		opts := demsort.NewOptions(p, o.mem, o.block)
		o.configure(&opts.Common)
		opts.KeepOutput = true
		res, err := demsort.Sort[demsort.KV16](demsort.KV16Codec{}, opts, input)
		fail(err)
		fmt.Printf("CanonicalMergeSort: P=%d N=%d (R=%d runs, k=%d sub-operations)\n",
			res.P, res.N, res.Runs, res.SubOps)
		ok = res.Validate(demsort.KV16Codec{}, input) == nil
		stats = &res.Stats
	}
	printPhases(stats, nBytes)
	verdict(ok)
	printTotal(stats, nBytes)
}

func fmtIO(read, written, nBytes int64) string {
	return fmt.Sprintf("read %.2fxN write %.2fxN",
		float64(read)/float64(nBytes), float64(written)/float64(nBytes))
}

func verdict(ok bool) {
	if ok {
		fmt.Println("validation: OK (sorted, exact partition, permutation of input)")
		return
	}
	fmt.Println("validation: FAILED")
	os.Exit(1)
}

// verdictRecords prints the valsort line of a records run's output and
// its verdict against the input's digest.
func verdictRecords(got, want sortbench.Summary) {
	fmt.Println("valsort:", got)
	verdict(recordsOK(got, want))
}

// recordsOK reports whether an output digest proves a sort of the
// input's: sorted, and the same records by count and checksum.
func recordsOK(got, want sortbench.Summary) bool {
	return got.Unsorted == 0 && got.Records == want.Records && got.Checksum == want.Checksum
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
