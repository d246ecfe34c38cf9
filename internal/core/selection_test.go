package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"demsort/internal/cluster"
	"demsort/internal/cluster/tcp"
	"demsort/internal/elem"
	"demsort/internal/job"
	"demsort/internal/mselect"
	"demsort/internal/sortbench"
	"demsort/internal/workload"
)

// selectionRun is what the ranks of one fleet leave behind through
// selectionHook.splitters.
type selectionRun struct {
	mu       sync.Mutex
	k        int64
	split    [][]int64           // the splitter matrix (identical on every rank)
	brackets [][]mselect.Bracket // [rank] the brackets the selection started from
	pieces   [][][]elem.Rec100   // [run][rank] segment contents, read back from disk
}

func (out *selectionRun) capture(n *cluster.Node, runs any, k int64, brackets []mselect.Bracket, split [][]int64) {
	c := elem.Rec100Codec{}
	locals := runs.([]localRun[elem.Rec100])
	segs := make([][]elem.Rec100, len(locals))
	for ri, lr := range locals {
		for _, e := range lr.file.Extents {
			raw := make([]byte, (e.Off+e.Len)*c.Size())
			n.Vol.ReadWait(e.ID, raw)
			segs[ri] = elem.AppendDecode(c, segs[ri], raw[e.Off*c.Size():], e.Len)
		}
	}
	out.mu.Lock()
	defer out.mu.Unlock()
	out.k, out.split = k, split
	if out.pieces == nil {
		out.pieces = make([][][]elem.Rec100, len(locals))
		for ri := range out.pieces {
			out.pieces[ri] = make([][]elem.Rec100, n.P)
		}
		out.brackets = make([][]mselect.Bracket, n.P)
	}
	out.brackets[n.Rank] = brackets
	for ri := range segs {
		out.pieces[ri][n.Rank] = segs[ri]
	}
}

// selectionCase is one input of the selection tests, all at M = 4096.
type selectionCase struct {
	name      string
	p         int // 0: 4 ranks on both backends; larger fleets on sim only
	block     int
	input     func(p int) [][]elem.Rec100
	randomize bool
}

func selectionCases() []selectionCase {
	const nPer = 50000
	uniform := func(p, n int) [][]elem.Rec100 {
		in := make([][]elem.Rec100, p)
		for r := range in {
			in[r] = sortbench.Generate(7, int64(r*n), int64(n))
		}
		return in
	}
	byKey := func(a, b elem.Rec100) int { return slices.Compare(a[:10], b[:10]) }
	return []selectionCase{
		{name: "B400", block: 400, input: func(p int) [][]elem.Rec100 { return uniform(p, nPer) }, randomize: true},
		{name: "B1600", block: 1600, input: func(p int) [][]elem.Rec100 { return uniform(p, nPer) }, randomize: true},
		// 16 KiB blocks leave M = 4096 room for five runs: the two-pass
		// capacity is 4 890 elements per rank.
		{name: "B16K", block: 16384, input: func(p int) [][]elem.Rec100 { return uniform(p, 4800) }, randomize: true},
		{name: "all-equal-keys", block: 400, randomize: true, input: func(p int) [][]elem.Rec100 {
			in := uniform(p, nPer)
			for _, tile := range in {
				for i := range tile {
					copy(tile[i][:10], "samekey---")
				}
			}
			return in
		}},
		{name: "presorted-tiles-norandomize", block: 400, randomize: false, input: func(p int) [][]elem.Rec100 {
			in := uniform(p, nPer)
			for _, tile := range in {
				slices.SortFunc(tile, byKey)
			}
			return in
		}},
		{name: "empty-rank", block: 400, randomize: true, input: func(p int) [][]elem.Rec100 {
			in := uniform(p, nPer)
			in[2] = nil
			return in
		}},
		// The selection's working set must not grow with the fleet: the
		// sample, the block cache and one gathered residual, whatever P·R.
		{name: "P16", p: 16, block: 400, input: func(p int) [][]elem.Rec100 { return uniform(p, nPer) }, randomize: true},
	}
}

// runSelectionCase sorts tc's input on p ranks of backend ("sim" or
// in-process "tcp") and returns what the hook saw and every rank's
// measurements: results[rank] is the one Result of a sim run, or rank's
// own on tcp.
func runSelectionCase(t *testing.T, tc selectionCase, p int, backend string) (*selectionRun, []*Result[elem.Rec100]) {
	const mem = 4096
	input := tc.input(p)
	cfg := DefaultConfig(p, mem, tc.block)
	cfg.Seed = 7
	cfg.Randomize = tc.randomize
	out := &selectionRun{}
	selectionHook.splitters = out.capture
	defer func() { selectionHook.splitters = nil }()
	results := make([]*Result[elem.Rec100], p)
	if backend == "sim" {
		res, err := Sort[elem.Rec100](elem.Rec100Codec{}, cfg, input)
		if err != nil {
			t.Fatal(err)
		}
		for rank := range results {
			results[rank] = res
		}
		return out, results
	}
	peers, err := tcp.ReservePorts(p)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := tcp.New(tcp.Config{Rank: rank, Peers: peers, BlockBytes: tc.block,
				MemElems: mem, ConnectTimeout: 20 * time.Second})
			if err != nil {
				errs[rank] = err
				return
			}
			defer m.Close()
			rcfg := cfg
			rcfg.Machine = m
			results[rank], errs[rank] = Sort[elem.Rec100](elem.Rec100Codec{}, rcfg, input)
		}()
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("tcp rank %d: %v", rank, err)
		}
	}
	return out, results
}

// TestSelectionRoundsIndependentOfBlockSize pins the owner-computes
// selection: on sim and on in-process tcp machines the splitter matrix
// is the unique exact one (mselect.Select over the whole runs), and the
// selection phase's message count stays under one bound that does not
// know the block size — at B = 4 elements the old probe-fetch protocol
// needed about 3 200 messages per rank where this allows 160.
func TestSelectionRoundsIndependentOfBlockSize(t *testing.T) {
	const (
		mem      = 4096
		msgBound = 160
	)
	for _, tc := range selectionCases() {
		p, backends := 4, []string{"sim", "tcp"}
		if tc.p != 0 {
			p, backends = tc.p, backends[:1]
		}
		for _, backend := range backends {
			t.Run(tc.name+"_"+backend, func(t *testing.T) {
				out, results := runSelectionCase(t, tc, p, backend)
				runs := make([][]elem.Rec100, len(out.pieces))
				var total int64
				for ri, segs := range out.pieces {
					runs[ri] = slices.Concat(segs...)
					total += int64(len(runs[ri]))
				}
				acc := mselect.SliceAccessor[elem.Rec100](runs)
				for i, rank := range job.RankBounds(total, p) {
					want := mselect.Select[elem.Rec100](elem.Rec100Codec{}, acc, rank)
					if !slices.Equal(out.split[i], want) {
						t.Fatalf("splitters of rank %d (row %d): got %v, want %v", rank, i, out.split[i], want)
					}
				}
				// A round is a fixed number of collectives, each p-1
				// messages per rank: the bound is stated for four ranks.
				bound := int64(msgBound) * int64(p-1) / 3
				var messages []int64
				for rank, res := range results {
					msgs := res.PerPE[rank][PhaseSelection].Messages
					messages = append(messages, msgs)
					if msgs > bound {
						t.Errorf("rank %d: %d selection messages, bound %d (R=%d)", rank, msgs, bound, len(runs))
					}
					if peak := res.PeakMemElems[rank]; peak > mem {
						t.Errorf("rank %d: budget peak %d exceeds M=%d", rank, peak, mem)
					}
					if end := res.EndMemElems[rank]; end != 0 {
						t.Errorf("rank %d: %d elements still reserved after the sort", rank, end)
					}
				}
				t.Logf("R=%d messages/rank %v", len(runs), messages)
			})
		}
	}
}

// TestSelectionStartsFromProvenBrackets: on sim, on every input of the
// round-count test, each rank starts every splitter rank's selection
// from the brackets the in-memory sample proves — at most 2·R·K
// elements in all, each holding the exact splitter of its run, with the
// low sample at or left of it — so no rank's selection has to be redone
// from a wider range.
func TestSelectionStartsFromProvenBrackets(t *testing.T) {
	for _, tc := range selectionCases() {
		t.Run(tc.name, func(t *testing.T) {
			p := max(tc.p, 4)
			out, _ := runSelectionCase(t, tc, p, "sim")
			r := int64(len(out.pieces))
			bound := 2 * r * out.k
			for rank, brackets := range out.brackets {
				if len(brackets) != p-1 {
					t.Fatalf("rank %d: %d bracket rows, want %d", rank, len(brackets), p-1)
				}
				var masses []int64
				for i, br := range brackets {
					cuts := out.split[i+1]
					if a := br.Low; a.Seq < 0 || cuts[a.Seq] < a.At {
						t.Errorf("rank %d row %d: low sample %v right of the splitters %v", rank, i+1, a, cuts)
					}
					var mass int64
					for ri, b := range br.Seqs {
						if cut := cuts[ri]; cut < b.Lo || cut > b.Hi {
							t.Errorf("rank %d row %d run %d: splitter %d outside bracket %v", rank, i+1, ri, cut, b)
						}
						mass += b.Hi - b.Lo
					}
					if mass > bound {
						t.Errorf("rank %d row %d: brackets hold %d elements, bound 2·R·K = %d", rank, i+1, mass, bound)
					}
					masses = append(masses, mass)
				}
				if rank == 0 {
					t.Logf("R=%d K=%d bracket mass per row %v (bound %d)", r, out.k, masses, bound)
				}
			}
		})
	}
}

// The modelled selection wall at the B = 4-element geometry, where the
// probe-fetch protocol cost a block read and a fleet-wide round per
// probe.
func TestSortSelectionNegligibleSmallBlocks(t *testing.T) {
	cfg := testConfig(8)
	cfg.BlockBytes = 4 * 16
	res, err := Sort[elem.KV16](kvc, cfg, inputFor(cfg, workload.Uniform, 6000, 23))
	if err != nil {
		t.Fatal(err)
	}
	sel, rf := res.MaxWall(PhaseSelection), res.MaxWall(PhaseRunForm)
	if sel > rf/20 {
		t.Errorf("selection wall %.4fs is %.1f%% of run formation's %.4fs — not negligible", sel, 100*sel/rf, rf)
	}
}

// The benchmark's canon_smallblock geometry (49 runs of 4-record blocks,
// K = 453): the parent's probe-fetch walk cost 13.7 % of run formation
// here in modelled time, every probe a synchronous block read.
func TestSortSelectionSmallblockGeometry(t *testing.T) {
	in := make([][]elem.Rec100, 4)
	for r := range in {
		in[r] = sortbench.Generate(7, int64(r*50000), 50000)
	}
	cfg := DefaultConfig(4, 4096, 400)
	cfg.Seed = 7
	res, err := Sort[elem.Rec100](elem.Rec100Codec{}, cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	sel, rf := res.MaxWall(PhaseSelection), res.MaxWall(PhaseRunForm)
	if sel > rf/10 {
		t.Errorf("selection wall %.1fs is %.1f%% of run formation's %.1fs", sel, 100*sel/rf, rf)
	}
}
