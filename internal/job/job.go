// Package job is what the sorters share: the paper has one pipeline
// (load → run formation → … → collect) instantiated by two algorithms
// (§III striped, §IV canonical) plus the NOW-Sort baseline, and
// everything about a sort job that does not depend on which of them
// runs lives here exactly once. The skeleton (this file, stats.go): the
// common configuration, the run geometry, validation and defaults,
// opening the input, building or adopting the machine, loading the
// input onto the volumes, and the per-phase statistics. The shared
// phases (runform.go): the mergesorts' run formation, FormRuns, the exact
// distributed sort of a run, SortExact, and the tail of any distributed
// internal sort, SortAcross. What the algorithms do differently (how
// exactly a run is split and where it is stored, their later phases,
// their capacity rules, their collect) stays with them.
package job

import (
	"fmt"
	"io"

	"demsort/internal/blockio"
	"demsort/internal/bufpool"
	"demsort/internal/cluster"
	"demsort/internal/cluster/sim"
	"demsort/internal/elem"
	"demsort/internal/psort"
	"demsort/internal/vtime"
)

// PhaseLoad and PhaseCollect bracket every sorter's accounted phases:
// putting the input on the volumes and handing the output over are
// outside the measured sort (the paper's inputs pre-exist on disk).
const (
	PhaseLoad    = "load"
	PhaseCollect = "collect"
)

// Base holds the machine and I/O configuration every sorter shares;
// baseline.Config embeds it directly, the two mergesorts through Common.
type Base struct {
	// P is the number of PEs (cluster nodes).
	P int
	// BlockBytes is the block size B in bytes (paper default 8 MiB).
	BlockBytes int
	// MemElems is the per-PE internal memory budget m in elements.
	MemElems int64
	// Seed drives all randomization.
	Seed uint64
	// KeepOutput retains the sorted output in the Result (tests);
	// production callers stream it through Sink, which it rides on
	// (Job.OutputSink). The striped sorter returns one concatenated
	// sequence and therefore needs every PE hosted in-process.
	KeepOutput bool
	// Source, when non-nil, streams each locally hosted rank's input as
	// encoded element bytes — the streaming dual of Sink, and the
	// scalable alternative to the input slices. It returns the rank's
	// byte stream and its element count; the load phase reads it
	// block-at-a-time straight onto the rank's volume through
	// blockio.FillFrom's three staging chunks, so loading never holds
	// more than that of the tile in RAM (demsort's -infile path). With
	// Source set the input argument of the sort must be nil. Reader
	// lifecycle belongs to the caller (the sort consumes exactly
	// count·elemSize bytes and does not Close). With a remote backend
	// Source is only called for the locally hosted ranks, and every
	// process must report the same per-rank counts.
	Source func(rank int) (io.Reader, int64, error)
	// Sink, when non-nil, streams each locally hosted rank's sorted
	// output as encoded element bytes — in order, block-at-a-time —
	// during the collect step. It is the scalable alternative to
	// KeepOutput: the output never has to be materialized in RAM
	// (demsort's tcp workers write their part files through it). The
	// canonical sorter streams the rank's local output file; the
	// striped sorter re-routes its striped blocks over the transport so
	// that rank i receives the contiguous block range [G·i/P, G·(i+1)/P)
	// — either way the per-rank streams concatenate in rank order to
	// the sorted sequence. The byte slice is only valid for the
	// duration of the call. Calls for one rank are sequential; on the
	// sim backend different ranks stream concurrently, so a Sink shared
	// across ranks must be safe for concurrent calls with distinct rank
	// arguments. It must be set (or unset) uniformly across the
	// processes of one machine; a Sink error aborts the sort.
	Sink func(rank int, encoded []byte) error
	// Model is the virtual-time cost model (zero value: vtime.Default).
	Model vtime.CostModel
	// NewStore optionally overrides the per-PE block store (e.g.
	// file-backed); nil uses RAM-backed stores.
	NewStore func(rank int) (blockio.Store, error)
	// Machine optionally supplies a pre-built transport backend (e.g.
	// a cluster/tcp machine hosting this process's rank). nil builds a
	// cluster/sim machine from the fields above and closes it after
	// the sort; a supplied Machine is left open — its lifecycle
	// belongs to the caller. With a remote backend only the locally
	// hosted ranks appear in input/Result slots, and every process
	// must pass the same per-PE input size (capacity checks and
	// auto-sizing are derived from the local part).
	Machine cluster.Machine
}

// Common is Base plus what the external mergesorts add to it — how runs
// are formed and whether I/O and communication overlap computation;
// core.Config and stripesort.Config embed it.
type Common struct {
	Base
	// Randomize enables the random shuffling of local input block IDs
	// before run formation (§IV: "each PE chooses its participating
	// blocks for the run randomly"). Figures 4 vs 6 are this switch.
	// Under global striping it balances the merge phase's disk load
	// rather than data placement: the shuffle makes all runs alike, and
	// the striped sorter then rotates the stripes of its runs — block g
	// of run r on PE (g + r) mod P instead of g mod P — so the blocks
	// the merge wants next are spread over all PEs. The striped output
	// is never rotated (see stripesort).
	Randomize bool
	// Overlap enables overlapping of I/O and communication with
	// computation (§IV-E); switching it off is the ablation knob. It is
	// a property of the substrate, not of the phase code: Job.Run reads
	// it once and sets blockio.Volume.SetSynchronous and
	// cluster.Node.SetA2AWindow accordingly.
	Overlap bool
}

// Defaults returns a ready-to-use common configuration for p PEs with
// a per-PE memory budget of memElems elements and the given block size.
func Defaults(p int, memElems int64, blockBytes int) Common {
	return Common{
		Base: Base{
			P:          p,
			BlockBytes: blockBytes,
			MemElems:   memElems,
			Seed:       1,
			Model:      vtime.Default(),
		},
		Randomize: true,
		Overlap:   true,
	}
}

// Geometry is the run geometry a configuration implies for one element
// size.
type Geometry struct {
	// BElem is the block size B in elements.
	BElem int
	// BlocksPerRun is the number of blocks a PE contributes to one
	// global run, RunLocal the same in elements (block-aligned).
	BlocksPerRun int
	RunLocal     int64
}

// Geometry validates the machine and block size against elemSize and
// computes the run geometry: a PE's share of one run is runFraction of
// MemElems — well below a half, since run formation holds the unsorted
// chunk, the merged result and the next run's prefetch at once (the
// paper's footnote 1: runs can be "a factor around two smaller" than M).
func (c *Base) Geometry(elemSize int, runFraction float64) (Geometry, error) {
	var g Geometry
	if c.P < 1 {
		return g, fmt.Errorf("P must be >= 1, got %d", c.P)
	}
	if c.BlockBytes < elemSize {
		return g, fmt.Errorf("block size %d smaller than one element (%d)", c.BlockBytes, elemSize)
	}
	g.BElem = c.BlockBytes / elemSize
	runLocal := int64(g.BElem) * 64
	if c.MemElems > 0 {
		runLocal = int64(float64(c.MemElems) * runFraction)
	}
	g.BlocksPerRun = max(int(runLocal/int64(g.BElem)), 1)
	g.RunLocal = int64(g.BlocksPerRun) * int64(g.BElem)
	return g, nil
}

// Runs returns the number of global runs nPerPE elements per PE form
// (at least one: an empty input still runs the protocol once).
func (g Geometry) Runs(nPerPE int64) int64 {
	return max((nPerPE+g.RunLocal-1)/g.RunLocal, 1)
}

// RankBounds returns the P+1 exact boundary ranks 0, N/P, 2N/P, …, N of
// the canonical partition of total elements.
func RankBounds(total int64, p int) []int64 {
	b := make([]int64, p+1)
	for i := range b {
		b[i] = total * int64(i) / int64(p)
	}
	return b
}

// EncodeParts splits a PE's sorted chunk at its local cut positions for
// ranks 1..P-1 and encodes part q — chunk[cuts[q-1]:cuts[q]] — into a
// pooled buffer as the all-to-all send vector for PE q.
func EncodeParts[T any](c elem.Codec[T], chunk []T, cuts []int64) [][]byte {
	send := make([][]byte, len(cuts)+1)
	lo := int64(0)
	for q := range send {
		hi := int64(len(chunk))
		if q < len(cuts) {
			hi = cuts[q]
		}
		send[q] = bufpool.Get(int(hi-lo) * c.Size())
		elem.EncodeInto(c, send[q], chunk[lo:hi])
		lo = hi
	}
	return send
}

// Job is one opened sort: validated configuration with defaults
// applied, run geometry, opened input and — after Start — the machine.
type Job[T any] struct {
	Geometry
	// NPerPE is the largest per-PE input size, which capacity checks
	// and auto-sizing are derived from.
	NPerPE int64
	// M is the machine the sort runs on (set by Start).
	M cluster.Machine

	c       elem.Codec[T]
	cfg     *Common
	input   [][]T
	readers map[int]io.Reader
	counts  map[int]int64
	owned   bool // M was built by Start and is closed by Close
}

// Open validates cfg and the input against it, applies the defaults in
// place (cfg is the sorter's own copy), opens the Source of every
// locally hosted rank and computes the geometry for runs of runFraction
// of the memory budget (see Geometry). The machine is not
// touched yet: the caller runs its own capacity checks on the returned
// job first, then calls Start.
func Open[T any](c elem.Codec[T], cfg *Common, input [][]T, runFraction float64) (*Job[T], error) {
	g, err := cfg.Geometry(c.Size(), runFraction)
	if err != nil {
		return nil, err
	}
	if cfg.Source == nil && len(input) != cfg.P {
		return nil, fmt.Errorf("input has %d PE slices, machine has %d PEs", len(input), cfg.P)
	}
	if cfg.Source != nil && input != nil {
		return nil, fmt.Errorf("Source and input slices are mutually exclusive")
	}
	if cfg.Model == (vtime.CostModel{}) {
		cfg.Model = vtime.Default()
	}
	j := &Job[T]{Geometry: g, c: c, cfg: cfg, input: input}
	if j.readers, j.counts, err = openSources(cfg); err != nil {
		return nil, err
	}
	for _, part := range input {
		j.NPerPE = max(j.NPerPE, int64(len(part)))
	}
	for _, cnt := range j.counts {
		j.NPerPE = max(j.NPerPE, cnt)
	}
	return j, nil
}

// openSources opens the streaming input of every locally hosted rank
// up front (all P ranks before a sim machine exists), so the per-rank
// element counts can drive the same sizing the slice lengths do; the
// readers themselves are only consumed by Load. The single place the
// Source contract is enforced.
func openSources(cfg *Common) (map[int]io.Reader, map[int]int64, error) {
	readers := make(map[int]io.Reader)
	counts := make(map[int]int64)
	if cfg.Source == nil {
		return readers, counts, nil
	}
	var local []int
	if cfg.Machine != nil {
		for _, node := range cfg.Machine.Nodes() {
			local = append(local, node.Rank)
		}
	} else {
		for rank := 0; rank < cfg.P; rank++ {
			local = append(local, rank)
		}
	}
	for _, rank := range local {
		r, cnt, err := cfg.Source(rank)
		if err != nil {
			return nil, nil, fmt.Errorf("input source, rank %d: %w", rank, err)
		}
		if cnt < 0 {
			return nil, nil, fmt.Errorf("input source, rank %d: negative count %d", rank, cnt)
		}
		readers[rank], counts[rank] = r, cnt
	}
	return readers, counts, nil
}

// Start adopts cfg.Machine or builds a cluster/sim machine from the
// configuration; Close releases what Start built.
func (j *Job[T]) Start() error {
	cfg := j.cfg
	if cfg.Machine != nil {
		if cfg.Machine.P() != cfg.P {
			return fmt.Errorf("machine has %d PEs, config says %d", cfg.Machine.P(), cfg.P)
		}
		// The geometry comes from the config, the volume and the budget
		// from the machine: they must describe the same PE.
		for _, n := range cfg.Machine.Nodes() {
			if b, m := n.Vol.BlockBytes(), n.Mem.Limit(); b != cfg.BlockBytes || m != cfg.MemElems {
				return fmt.Errorf("machine's rank %d has %d-byte blocks and a memory budget of %d elements, config says %d and %d",
					n.Rank, b, m, cfg.BlockBytes, cfg.MemElems)
			}
		}
		j.M = cfg.Machine
		return nil
	}
	sm, err := sim.New(sim.Config{
		P:          cfg.P,
		BlockBytes: cfg.BlockBytes,
		MemElems:   cfg.MemElems,
		Model:      cfg.Model,
		NewStore:   cfg.NewStore,
	})
	if err != nil {
		return err
	}
	j.M, j.owned = sm, true
	return nil
}

// Close closes the machine if Start built it; an adopted machine's
// lifecycle belongs to the caller.
func (j *Job[T]) Close() {
	if j.owned {
		j.M.Close()
	}
}

// Run executes fn on every locally hosted PE. This is the one place a
// sort reads Overlap: it sets the two substrate switches — synchronous
// volume I/O and the all-to-all stream window — and phase code, written
// once in its overlapped form, never asks.
func (j *Job[T]) Run(fn func(n *cluster.Node) error) error {
	window := 1
	if j.cfg.Overlap {
		window = 2
	}
	return j.M.Run(func(n *cluster.Node) error {
		n.Vol.SetSynchronous(window == 1)
		n.SetA2AWindow(window)
		return fn(n)
	})
}

// OutputSink returns what a sorter's collect step feeds each rank's
// sorted stream to, block at a time — the configured Sink, behind a
// decode into kept[rank] when KeepOutput is set — and kept itself (nil
// without KeepOutput). A nil sink means nobody wants the output. Distinct
// ranks write distinct slots, so the sim backend's concurrent PEs need
// no lock.
func (j *Job[T]) OutputSink() (sink func(rank int, encoded []byte) error, kept [][]T) {
	user := j.cfg.Sink
	if !j.cfg.KeepOutput {
		return user, nil
	}
	kept = make([][]T, j.cfg.P)
	return func(rank int, b []byte) error {
		kept[rank] = elem.AppendDecode(j.c, kept[rank], b, len(b)/j.c.Size())
		if user != nil {
			return user(rank, b)
		}
		return nil
	}, kept
}

// First reports whether n is the first locally hosted PE — the one
// whose machine-wide values (N, run count, …) a Result records.
func (j *Job[T]) First(n *cluster.Node) bool { return n.Rank == j.M.Nodes()[0].Rank }

// Load is the load step: it puts rank n's input — its Source stream or
// its input slice — onto the local volume as block-aligned spans of
// BElem elements (the last one may be shorter), drains the writes and
// closes the step with a barrier. A Source goes through FillFrom with
// its three staging chunks charged to the budget; nothing else of the
// tile is ever resident.
func (j *Job[T]) Load(n *cluster.Node) ([]blockio.Span, error) {
	n.SetPhase(PhaseLoad)
	sz := j.c.Size()
	chunk := j.BElem * sz
	var spans []blockio.Span
	if j.cfg.Source != nil {
		stage := 3 * int64(j.BElem)
		n.Mem.MustAcquire(stage)
		var err error
		spans, err = n.Vol.FillFrom(j.readers[n.Rank], j.counts[n.Rank]*int64(sz), chunk)
		n.Mem.Release(stage)
		if err != nil {
			for _, sp := range spans {
				n.Vol.Free(sp.ID)
			}
			return nil, fmt.Errorf("input source, rank %d: %w", n.Rank, err)
		}
	} else {
		enc := bufpool.Get(chunk)
		for in := j.input[n.Rank]; len(in) > 0; {
			blk := in[:min(len(in), j.BElem)]
			in = in[len(blk):]
			id := n.Vol.Alloc()
			eb := enc[:len(blk)*sz]
			elem.EncodeInto(j.c, eb, blk)
			n.Vol.WriteAsync(id, eb)
			spans = append(spans, blockio.Span{ID: id, Bytes: len(eb)})
		}
		bufpool.Put(enc)
	}
	n.Vol.Drain()
	n.Barrier()
	return spans, nil
}

// sortChunkBudgeted runs one of run formation's in-node sorts with the
// radix scratch (pair buffers, histograms, the LSD gather buffer)
// charged against the memory budget. The engine is chosen per chunk
// against the live headroom: the LSD scatter while its scratch fits, the
// in-place MSD when memory is tight (about half the scratch — one pair
// buffer, no element gather buffer). Closure-only codecs bypass the
// radix engines and charge nothing.
func sortChunkBudgeted[T any](c elem.Codec[T], n *cluster.Node, chunk []T) {
	workers := psort.DefaultWorkers()
	if _, keyed := elem.Codec[T](c).(elem.KeyedCodec[T]); !keyed {
		psort.Sort(c, chunk, workers)
		return
	}
	scratchElems := func(path psort.Path) int64 {
		b := psort.ScratchBytes(path, c.Size(), len(chunk), workers)
		return (b + int64(c.Size()) - 1) / int64(c.Size())
	}
	path := psort.PathLSD
	if lim := n.Mem.Limit(); lim > 0 && n.Mem.Used()+scratchElems(psort.PathLSD) > lim {
		path = psort.PathMSD
	}
	scratch := scratchElems(path)
	n.Mem.MustAcquire(scratch)
	psort.SortPath(c, chunk, workers, path)
	n.Mem.Release(scratch)
}
