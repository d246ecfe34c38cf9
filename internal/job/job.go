// Package job is what the sorters share: the paper has one pipeline
// (load → run formation → … → collect) instantiated by two algorithms
// (§III striped, §IV canonical) plus the NOW-Sort baseline, and
// everything about a sort job that does not depend on which of them
// runs lives here exactly once. The skeleton (this file, stats.go): the
// common configuration, validation and defaults, opening the input,
// building or adopting the machine, loading the input (staging a
// forward-only one onto the volumes), and the per-phase statistics. The
// capacity plan (plan.go): the run geometry, every budget share and
// every refusal of all three sorters. The run files (file.go): File, the
// block writer with the exchange's suspend/resume, the prefetching
// reader, and MergeFiles, the local k-way merge the canonical final
// merge and the baseline's local external sort share. The shared phases
// (runform.go): run formation, FormRuns; the exact sort of a run,
// SortExact, split by dselect.Split; and the tail of any distributed
// internal sort, SortAcross. What the algorithms do differently (how
// exactly a run is split and where it is stored, their later phases,
// their collect) stays with them.
package job

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"demsort/internal/blockio"
	"demsort/internal/bufpool"
	"demsort/internal/cluster"
	"demsort/internal/cluster/sim"
	"demsort/internal/dselect"
	"demsort/internal/elem"
	"demsort/internal/psort"
	"demsort/internal/vtime"
)

// PhaseLoad and PhaseCollect bracket every sorter's accounted phases:
// opening (or staging) the input and handing the output over are
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
	// MemElems is the per-PE internal memory budget m in elements; the
	// plan refuses a job without one.
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
	// byte stream and its element count. A reader that can be read at an
	// offset (an io.ReaderAt with Size() int64, as bytes.Reader and
	// io.SectionReader are — demsort's -infile path) is read once: run
	// formation fetches each block straight from it, and it must hold at
	// least count·elemSize bytes. A forward-only reader is staged onto
	// the rank's volume by the load phase, block-at-a-time through
	// blockio.FillFrom's one staging chunk. Either way no more than a
	// few blocks of the tile are ever in RAM. With Source set the input
	// argument of the sort must be nil. Reader lifecycle belongs to the
	// caller (the sort reads exactly count·elemSize bytes and does not
	// Close). With a remote backend Source is only called for the
	// locally hosted ranks, and every process must report the same
	// per-rank counts.
	Source func(rank int) (io.Reader, int64, error)
	// Sink, when non-nil, streams each locally hosted rank's sorted
	// output as encoded element bytes — in order, in whole elements —
	// from the pass that produces the output. It is the scalable
	// alternative to KeepOutput: the output never has to be materialized
	// in RAM (demsort's tcp workers write their part files through it).
	// The canonical sorter's final merge hands it each output block
	// instead of writing it to the store; the striped sorter's merge
	// stripes each merged batch straight to its owners, rank i receiving
	// the contiguous block range [G·i/P, G·(i+1)/P), one whole block per
	// call and in order — either way the output is never written to the
	// store, and the per-rank streams concatenate in rank order to the
	// sorted sequence. The byte slice is only valid for the duration of the
	// call. Calls for one rank are sequential; on the sim backend
	// different ranks stream concurrently, so a Sink shared across ranks
	// must be safe for concurrent calls with distinct rank arguments. It
	// must be set (or unset) uniformly across the processes of one
	// machine; a Sink error aborts the sort.
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
	// must pass the same per-PE input size (the plan is derived from the
	// local part).
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
// ranks 1..P-1 and gathers part q — chunk elements [cuts[q-1], cuts[q])
// — in sorted order into a pooled buffer as the all-to-all send vector
// for PE q (elem.Gather): each element is copied once, from where it was
// read, and chunk is left as it was. Each part ends in an 8-byte trailer,
// the count of chunk elements before it (cuts[q-1], 0 for part 0), so
// that PE q learns from its parts where its piece starts (SortAcross); an
// empty part is the trailer alone.
func EncodeParts[T any](c elem.Codec[T], chunk dselect.Sorted[T], cuts []int64) [][]byte {
	send := make([][]byte, len(cuts)+1)
	lo := 0
	for q := range send {
		hi := chunk.Len()
		if q < len(cuts) {
			hi = int(cuts[q])
		}
		send[q] = bufpool.Get((hi-lo)*c.Size() + 8)
		if chunk.Perm == nil {
			elem.EncodeInto(c, send[q], chunk.Vals[lo:hi])
		} else {
			elem.Gather(c, send[q], chunk.Vals, chunk.Perm[lo:hi])
		}
		binary.LittleEndian.PutUint64(send[q][len(send[q])-8:], uint64(lo))
		lo = hi
	}
	return send
}

// Job is one opened sort: validated configuration with defaults
// applied, its capacity plan, opened input and — after Start — the
// machine.
type Job[T any] struct {
	Plan
	// M is the machine the sort runs on (set by Start).
	M cluster.Machine

	c       elem.Codec[T]
	cfg     *Common
	readers map[int]io.Reader
	counts  map[int]int64
	inPlace map[int]io.ReaderAt // the ranks whose input is read in place
	owned   bool                // M was built by Start and is closed by Close
}

// Open validates the input against cfg, applies the defaults in place
// (cfg is the sorter's own copy), opens the Source of every locally
// hosted rank — input slices are opened like a Source, so Load has one
// path — and plans the job for sorter (NewPlan; sampleK is the canonical
// sorter's configured K), which refuses a job that cannot work before
// any machine exists or a byte of input is read.
func Open[T any](c elem.Codec[T], cfg *Common, input [][]T, sorter Sorter, sampleK int64) (*Job[T], error) {
	if cfg.Source == nil && len(input) != cfg.P {
		return nil, fmt.Errorf("input has %d PE slices, machine has %d PEs", len(input), cfg.P)
	}
	if cfg.Source != nil && input != nil {
		return nil, fmt.Errorf("Source and input slices are mutually exclusive")
	}
	if cfg.Model == (vtime.CostModel{}) {
		cfg.Model = vtime.Default()
	}
	j := &Job[T]{c: c, cfg: cfg}
	var err error
	if j.readers, j.counts, err = openSources(c, cfg, input); err != nil {
		return nil, err
	}
	var nPerPE int64
	j.inPlace = make(map[int]io.ReaderAt)
	for rank := range cfg.P {
		cnt := j.counts[rank]
		nPerPE = max(nPerPE, cnt)
		// A reader that can be read at an offset (bytes.Reader,
		// io.SectionReader) is read in place, so it must hold the tile.
		if at, ok := j.readers[rank].(interface {
			io.ReaderAt
			Size() int64
		}); ok {
			if at.Size() < cnt*int64(c.Size()) {
				return nil, fmt.Errorf("input source, rank %d: reader holds %d bytes, %d elements need %d", rank, at.Size(), cnt, cnt*int64(c.Size()))
			}
			j.inPlace[rank] = at
		}
	}
	j.Plan, err = NewPlan(Shape{Sorter: sorter, P: cfg.P, MemElems: cfg.MemElems, BlockBytes: cfg.BlockBytes,
		ElemSize: c.Size(), NPerPE: nPerPE, Randomize: cfg.Randomize, SampleK: sampleK,
		Collected: cfg.Sink != nil || cfg.KeepOutput})
	if err != nil {
		return nil, err
	}
	return j, nil
}

// openSources opens the streaming input of every locally hosted rank
// up front (all P ranks before a sim machine exists), so the per-rank
// element counts can drive the sizing; the readers themselves are only
// consumed once the PEs run. Input slices are encoded behind one
// bytes.Reader per rank. With Open's size check, the one place the
// Source contract is enforced.
func openSources[T any](c elem.Codec[T], cfg *Common, input [][]T) (map[int]io.Reader, map[int]int64, error) {
	readers := make(map[int]io.Reader)
	counts := make(map[int]int64)
	for rank, part := range input {
		readers[rank], counts[rank] = bytes.NewReader(elem.EncodeSlice(c, part)), int64(len(part))
	}
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

// OutputSink returns what a sorter feeds each rank's sorted stream to,
// piece by piece, from the pass that produces the output — the
// configured Sink, behind a decode into kept[rank] when KeepOutput is
// set — and kept itself (nil without KeepOutput). A nil sink means
// nobody wants the output. Distinct ranks write distinct slots, so the
// sim backend's concurrent PEs need no lock.
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

// Input is one rank's input as Load hands it to the phases: its
// block-aligned spans of BElem elements (the last one may be shorter),
// in input order. A phase issues a span's read (Issue, then Wait on the
// volume), fills a buffer with its bytes (Fill) and releases it once
// decoded; whether a span is a range of the Source or a block staged on
// the store is Load's business, never the phase's.
type Input struct {
	Spans  []blockio.Span
	vol    *blockio.Volume
	rank   int
	at     io.ReaderAt // read in place: span ID is bytes [ID·stride, +Bytes); nil: staged on vol
	stride int64
}

// Issue accounts the read of span sp on the volume — the disk time, the
// counters, the stall of a synchronous volume — and returns its handle.
// It moves no data: Fill does, once the caller's buffer is free.
func (in *Input) Issue(sp blockio.Span) blockio.Handle { return in.vol.IssueRead(sp.Bytes) }

// Fill reads span sp's bytes into dst (sp.Bytes long), from the Source
// where it lies or from the block Load staged. The Source comes from
// outside the program, so a short or failed read is an error wrapping
// the cause.
func (in *Input) Fill(sp blockio.Span, dst []byte) error {
	if in.at == nil {
		return in.vol.Store().ReadAt(sp.ID, dst)
	}
	off := int64(sp.ID) * in.stride
	if n, err := in.at.ReadAt(dst, off); n < len(dst) {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("input source, rank %d: read of %d bytes at offset %d: %w", in.rank, len(dst), off, err)
	}
	return nil
}

// Release drops a span that has been read: a staged block goes back to
// the volume; a range of the Source has nothing to free.
func (in *Input) Release(sp blockio.Span) {
	if in.at == nil {
		in.vol.Free(sp.ID)
	}
}

// Load is the load step. A Source that can be read at an offset is left
// where it is: Load only cuts it into spans, and run formation reads
// each block once, straight from it. A forward-only Source is staged:
// Load streams it onto the local volume through FillFrom, whose one
// staging chunk is charged to the budget — nothing else of the tile is
// ever resident — and drains the writes. Either way the step closes
// with a barrier.
func (j *Job[T]) Load(n *cluster.Node) (*Input, error) {
	n.SetPhase(PhaseLoad)
	chunk, total := j.BElem*j.c.Size(), j.counts[n.Rank]*int64(j.c.Size())
	in := &Input{vol: n.Vol, rank: n.Rank, at: j.inPlace[n.Rank], stride: int64(chunk)}
	if in.at != nil {
		for off := int64(0); off < total; off += in.stride {
			in.Spans = append(in.Spans, blockio.Span{ID: blockio.BlockID(off / in.stride), Bytes: int(min(in.stride, total-off))})
		}
	} else {
		n.Mem.MustAcquire(int64(j.BElem))
		spans, err := n.Vol.FillFrom(j.readers[n.Rank], total, chunk)
		n.Mem.Release(int64(j.BElem))
		if err != nil {
			for _, sp := range spans {
				n.Vol.Free(sp.ID)
			}
			return nil, fmt.Errorf("input source, rank %d: %w", n.Rank, err)
		}
		in.Spans = spans
		n.Vol.Drain()
	}
	n.Barrier()
	return in, nil
}

// sortChunkBudgeted runs one of run formation's in-node sorts with the
// radix engine's scratch (one pair buffer and the histograms, rounded up
// to whole elements) charged against the memory budget — within the
// share Plan.formRunsFits reserves: psort.Sort in place with perm nil,
// psort.Order into perm otherwise. Closure-only codecs bypass the radix
// engine and charge nothing.
func sortChunkBudgeted[T any](c elem.Codec[T], n *cluster.Node, chunk []T, perm []int32) {
	workers := psort.DefaultWorkers()
	var scratch int64
	if _, keyed := elem.Codec[T](c).(elem.KeyedCodec[T]); keyed {
		es := int64(c.Size())
		scratch = (psort.ScratchBytes(len(chunk), workers) + es - 1) / es
	}
	n.Mem.MustAcquire(scratch)
	if perm == nil {
		psort.Sort(c, chunk, workers)
	} else {
		psort.Order(c, chunk, perm, workers)
	}
	n.Mem.Release(scratch)
}
