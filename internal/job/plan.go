package job

import (
	"fmt"
	"sort"

	"demsort/internal/dselect"
	"demsort/internal/psort"
)

// Sorter names the algorithm a plan is made for: CANONICALMERGESORT
// (§IV, package core), the globally striped mergesort (§III, package
// stripesort) or the NOW-Sort-style sample sort (package baseline).
type Sorter int

const (
	Canonical Sorter = iota
	Striped
	Baseline
)

// Shape is what a plan is computed from, before any machine exists: the
// sorter, P, the per-PE memory budget M in elements, the block size and
// the element size in bytes, the largest per-PE input N/P in elements,
// Common.Randomize (it rotates the striped run stripes), the canonical
// sorter's configured K (0: the plan picks) and whether the output is
// collected (a Sink or KeepOutput: the striped merge then stripes each
// batch to the output's canonical owners instead of over the PEs).
type Shape struct {
	Sorter     Sorter
	P          int
	MemElems   int64
	BlockBytes int
	ElemSize   int
	NPerPE     int64
	Randomize  bool
	SampleK    int64
	Collected  bool
}

// Plan is how one job divides its memory budget. NewPlan is the one
// place M is divided and the one place a job that cannot work is
// refused; the phases read their shares from here (another sorter's are
// zero): the run geometry — B in elements, the blocks and elements a PE
// contributes to each run, R; the canonical sampling distance K (§IV-A);
// what a canonical all-to-all sub-operation stages on either side of a
// PE, the final merge's buffers, the selection's block cache (in blocks)
// and its residual gather (the striped merge quota is MergeQuota); the
// largest N/P the canonical sorter takes in two passes; the exact run
// split's regular samples per PE and the most elements one of its owners
// gathers (SortExact); and how many blocks the final merge reads from a
// file per store call and a writer stages per store call (MergeFiles,
// Writer).
type Plan struct {
	Shape
	BElem, BlocksPerRun         int
	RunLocal, Runs, K           int64
	ExchangeQuota, MergeBuffers int64
	CacheBlocks                 int
	Gather                      int64
	MaxElemsPerPE               int64
	SplitSamples, SplitResidual int64
	ReadWindow, WriteStage      int
}

// stretchBytes is what one store call should move at least: at 16 KiB
// blocks a file store reads and writes at 0.86–0.99 of a plain file, at
// 400-byte blocks at 0.07, the per-call cost dominating (ROADMAP
// reading 7).
const stretchBytes = 16 << 10

// NewPlan computes the plan of a job of shape s, or refuses the job
// saying what to change. A refused plan still carries what was computed
// before the refusal (MaxElemsPerPE, the capacity a refusal quotes).
func NewPlan(s Shape) (Plan, error) {
	p := Plan{Shape: s, ReadWindow: 2, WriteStage: 1}
	if s.P < 1 {
		return p, fmt.Errorf("P must be >= 1, got %d", s.P)
	}
	if s.BlockBytes < s.ElemSize {
		return p, fmt.Errorf("block size %d smaller than one element (%d)", s.BlockBytes, s.ElemSize)
	}
	m := s.MemElems
	if m <= 0 {
		return p, fmt.Errorf("memory budget of %d elements: every sort needs a positive one (demsort -mem)", m)
	}
	p.BElem = s.BlockBytes / s.ElemSize
	b := int64(p.BElem)
	// A PE's share of one run is well below half the budget, since run
	// formation holds the unsorted chunk next to its send copies or what
	// it receives, and the next run's prefetch (the paper's footnote 1:
	// runs can be "a factor around two smaller" than M): a quarter, and a
	// fifth striped, where the piece of a run SortAcross hands a PE under
	// sample splitters is up to 5/4 of its share (RecvBound), held as the
	// received buffers and the merged piece. The baseline's run is the
	// chunk it distributes per round.
	runLocal := m / 4
	if s.Sorter == Striped {
		runLocal = m / 5
	}
	p.BlocksPerRun = max(int(runLocal/b), 1)
	p.RunLocal = int64(p.BlocksPerRun) * b
	// At least one run: an empty input still runs the protocol once.
	p.Runs = max((s.NPerPE+p.RunLocal-1)/p.RunLocal, 1)
	p.SplitSamples = dselect.SplitSamples(p.RunLocal)
	// The exact split (dselect.Split) pools up to s = ⌊√(2·RunLocal)⌋
	// samples of every PE, then gathers at most 2·P·(g − 1) elements at an
	// owner, g the widest sample gap: either is about P·√(2·RunLocal). A
	// chunk of ln elements takes ⌊√(2·ln)⌋, so g is a full chunk's or the
	// longest one's sampled once less, ⌈s²/2⌉ − 1 elements long.
	ss, s1 := p.SplitSamples, max(p.SplitSamples-1, 1)
	g := max((p.RunLocal+ss-1)/ss, ((ss*ss+1)/2-1+s1-1)/s1)
	p.SplitResidual = 2 * int64(s.P) * (g - 1)
	switch s.Sorter {
	case Canonical:
		return p, p.canonical()
	case Striped:
		return p, p.striped()
	}
	return p, nil
}

// canonical plans CANONICALMERGESORT under the paper's memory
// constraints — the practical form of its O(P·m²/B) capacity bound
// (§IV-D): four blocks fit the budget, the final merge's two prefetch
// buffers per run and output buffer fit half of it, and the sample (N/K
// elements on every PE) an eighth. K is the configured one, or the first
// of K = B, B·5/4+1, … whose sample fits — coarser for large machines
// (the footnote-12 pressure). Small blocks move in stretches of up to
// stretchBytes per store call: the final merge reads a window of
// ReadWindow blocks per run, as many as that half of the budget holds,
// and a writer stages WriteStage blocks where run formation's sort
// scratch was (its run sample beside them) and no more than a run share,
// so the exchange's and the merge's reservations still fit.
func (p *Plan) canonical() error {
	m, b, runs := p.MemElems, int64(p.BElem), p.Runs
	// The merge buffers cap R at m/(4B)-ish runs of m/4 elements.
	if maxRuns := (m/2 - b) / (2 * b); maxRuns >= 1 {
		p.MaxElemsPerPE = maxRuns * p.RunLocal
	}
	if 4*b > m {
		return fmt.Errorf("memory budget %d elements cannot hold 4 blocks of %d; raise the budget or lower the block size (demsort -mem / -block)", m, b)
	}
	if need := (2*runs + 1) * b; need > m/2 {
		return fmt.Errorf("%d runs of %d-element blocks need %d elements of merge buffers, budget allows %d — input too large for two passes (capacity %d elements/PE); raise the budget, lower the block size or the input (demsort -mem / -block / -n)",
			runs, b, need, m/2, p.MaxElemsPerPE)
	}
	sample := func(k int64) int64 { return runs * ((p.RunLocal*int64(p.P) + k - 1) / k) }
	if p.K = p.SampleK; p.K <= 0 {
		// Past K = RunLocal·P the sample is one element per run and
		// stops shrinking.
		p.K = b
		for sample(p.K) > m/8 && p.K < p.RunLocal*int64(p.P) {
			p.K = p.K*5/4 + 1
		}
	}
	if s := sample(p.K); s > m/8 {
		return fmt.Errorf("sample of %d elements (every %d-th position of %d runs) exceeds its budget share %d; raise the budget or lower the input (demsort -mem / -n)",
			s, p.K, runs, m/8)
	}
	// A PE's segment of a run is at most RunLocal long, so it holds at
	// most ⌈RunLocal/K⌉ sample elements of each earlier run.
	runSample := (p.RunLocal + p.K - 1) / p.K
	room, err := p.formRunsFits((runs-1)*runSample, max(int64(p.P)*p.SplitSamples, p.SplitResidual))
	if err != nil {
		return err
	}
	p.ExchangeQuota = m / 4
	p.ReadWindow = int(max(min((m/2-b)/(runs*b), int64((stretchBytes+p.BlockBytes-1)/p.BlockBytes)), 2))
	p.MergeBuffers = (int64(p.ReadWindow)*runs + 1) * b
	p.WriteStage = max(min(stretchBytes/p.BlockBytes, int((room-runSample)/b), p.BlocksPerRun), 1)
	// Beside the sample, up to half the budget for cached blocks and an
	// eighth for a gathered residual — which is read from disk, so
	// bisecting stops at a couple of blocks per run.
	p.CacheBlocks = max(int(m/2/b), 2)
	p.Gather = min(2*b*runs, m/8)
	return nil
}

// striped plans the striped sorter. Every PE holds the prediction table
// — one entry per input block — through the merge, next to the leftover
// blocks of the R runs and the working set of one batch; R may grow to
// Θ(M/B), the global constraint of Section III.
func (p *Plan) striped() error {
	m, b, pe := p.MemElems, int64(p.BElem), int64(p.P)
	if table := pe * ((p.NPerPE + b - 1) / b); p.MergeQuota(table) == 0 {
		layout := "unrotated run stripes (Randomize is off) can leave all of them on one PE"
		if p.Randomize {
			layout = "rotated run stripes spread them over the PEs"
		}
		return fmt.Errorf("no merge batch fits the memory budget of %d elements: every PE holds the prediction table (%d entries, one per %d-element block) and the leftover blocks of %d runs (%s), and needs room to fetch, merge and send on at least one more; raise the budget or change the block size (demsort -mem / -block)",
			m, table, b, p.Runs, layout)
	}
	_, err := p.formRunsFits(0, 0)
	return err
}

// formRunsFits refuses a job whose run formation overflows the budget:
// a PE holds its run share and what the sorter holds of earlier runs,
// next to first the scratch of the radix engine that sortChunkBudgeted
// sorts with (on any host's worker count) and then the run's
// permutation (R > 1: charged once psort.Order has found it, until
// SortAcross has gathered the run) and what the run's split holds. It
// returns that working room, the larger of the two, which is dead by
// the time the run is stored.
func (p *Plan) formRunsFits(held, split int64) (int64, error) {
	es := int64(p.ElemSize)
	scratch := (psort.ScratchBytes(int(p.RunLocal), psort.MaxWorkers) + es - 1) / es
	var perm int64
	if p.Runs > 1 {
		perm = permElems(p.RunLocal, p.ElemSize)
	}
	room := max(scratch, perm+split)
	if need := p.RunLocal + held + room; need > p.MemElems {
		return room, fmt.Errorf("run formation holds a run share of %d elements, %d of sort scratch (%d for its permutation and %d to split it) and %d sampled from earlier runs: %d elements of a memory budget of %d; raise the budget (demsort -mem)",
			p.RunLocal, scratch, perm, split, held, need, p.MemElems)
	}
	return room, nil
}

// MergeQuota is the number of blocks a striped PE fetches per merge
// batch with a prediction table of table entries: the largest q whose
// batch fits the budget, 0 when not even one block does. NewPlan refuses
// a job whose table bound (one entry per input block) leaves 0; the
// merge re-evaluates it on the table it built. What a batch holds on one
// PE:
//
//   - the prediction table, for the whole merge;
//   - pending = (left + q) blocks: the q it fetches on top of the
//     leftovers of earlier batches. A run leaves at most its last
//     fetched block behind. Under rotated stripes a PE homes the runs of
//     one residue class, and runs that are alike are within a block of
//     each other, so two classes' worth: left = 2·⌈R/P⌉. Unrotated, the
//     leftovers of all runs can share a PE: left = R;
//   - then either all of pending is emitted and SortAcross holds the
//     send copies next to it (2·pending), or — at worst — none of it is
//     and the PE still receives a full share of what the machine emits,
//     at most everything pending anywhere, E = (R + P·q) blocks: 3 ×
//     that share (RecvBound) for SortAcross, which holds two (the third
//     over-reserves until ROADMAP 5(d3)), and afterwards the merged piece
//     next to its send copies or to the output blocks it assembles (one
//     even share and a partial block at either end);
//   - with the output collected, the merged share goes to the output's
//     owners instead: the merged piece stays charged while this PE, as
//     an owner, receives up to all of E (RecvBound(E) + E).
func (p *Plan) MergeQuota(table int64) int64 {
	m, b, runs, pe := p.MemElems, int64(p.BElem), p.Runs, int64(p.P)
	left := runs
	if p.Randomize {
		left = min(runs, 2*((runs+pe-1)/pe))
	}
	need := func(q int64) int64 {
		pending, emitted := (left+q)*b, (runs+pe*q)*b
		work := 3*RecvBound(emitted, p.P) + 2*b
		if p.Collected {
			work = max(work, RecvBound(emitted, p.P)+emitted)
		}
		return table + pending + max(pending, work)
	}
	// need grows with q: the largest q that fits is one below the first
	// that does not.
	return int64(sort.Search(int(m/b)+1, func(q int) bool { return need(int64(q)+1) > m }))
}

// SampleFactor·P is the number of regular samples a striped PE
// contributes to a sample split. It fixes how uneven the cuts can be:
// see RecvBound.
const SampleFactor = 8

// RecvBound is the most elements a sample split hands one PE when total
// elements are cut. With s regular samples per PE, a PE's elements
// between two splitters are those its samples in between stand for plus
// at most one more sample's worth, and a splitter misses its target
// weight by less than the heaviest sample: an even share, 1/s of the
// total, 1/s of the largest chunk, and a rounding element per PE. With
// s = SampleFactor·P that is at most 1 + 2/SampleFactor = 5/4 of an even
// share — the constant MergeQuota and the striped run share charge.
func RecvBound(total int64, p int) int64 {
	share := (total + int64(p) - 1) / int64(p)
	return min(total, share+(2*share+SampleFactor-1)/SampleFactor+int64(p)+2)
}
