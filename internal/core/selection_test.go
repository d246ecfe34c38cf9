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

// selectionRun is what the ranks of one fleet leave behind for the
// round-count test through selectionHook.splitters.
type selectionRun struct {
	mu     sync.Mutex
	split  [][]int64         // the splitter matrix (identical on every rank)
	pieces [][][]elem.Rec100 // [run][rank] segment contents, read back from disk
}

func (out *selectionRun) capture(n *cluster.Node, runs any, split [][]int64) {
	c := elem.Rec100Codec{}
	locals := runs.([]localRun[elem.Rec100])
	segs := make([][]elem.Rec100, len(locals))
	for ri, lr := range locals {
		err := streamRaw(c, n.Vol, lr.file, func(b []byte) error {
			segs[ri] = elem.AppendDecode(c, segs[ri], b, len(b)/c.Size())
			return nil
		})
		if err != nil {
			panic(err)
		}
	}
	out.mu.Lock()
	defer out.mu.Unlock()
	out.split = split
	if out.pieces == nil {
		out.pieces = make([][][]elem.Rec100, len(locals))
		for ri := range out.pieces {
			out.pieces[ri] = make([][]elem.Rec100, n.P)
		}
	}
	for ri := range segs {
		out.pieces[ri][n.Rank] = segs[ri]
	}
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
		nPer     = 50000
		msgBound = 160
	)
	p := 4
	uniform := func(n int) [][]elem.Rec100 {
		in := make([][]elem.Rec100, p)
		for r := range in {
			in[r] = sortbench.Generate(7, int64(r*n), int64(n))
		}
		return in
	}
	byKey := func(a, b elem.Rec100) int { return slices.Compare(a[:10], b[:10]) }
	cases := []struct {
		name      string
		p         int // 0: 4 ranks on both backends; larger fleets on sim only
		block     int
		input     func() [][]elem.Rec100
		randomize bool
		skew      func(est [][]int64, k int64)
		msgBound  int64
	}{
		{name: "B400", block: 400, input: func() [][]elem.Rec100 { return uniform(nPer) }, randomize: true},
		{name: "B1600", block: 1600, input: func() [][]elem.Rec100 { return uniform(nPer) }, randomize: true},
		// 16 KiB blocks leave M = 4096 room for five runs: the two-pass
		// capacity is 4 890 elements per rank.
		{name: "B16K", block: 16384, input: func() [][]elem.Rec100 { return uniform(4800) }, randomize: true},
		{name: "all-equal-keys", block: 400, randomize: true, input: func() [][]elem.Rec100 {
			in := uniform(nPer)
			for _, tile := range in {
				for i := range tile {
					copy(tile[i][:10], "samekey---")
				}
			}
			return in
		}},
		{name: "presorted-tiles-norandomize", block: 400, randomize: false, input: func() [][]elem.Rec100 {
			in := uniform(nPer)
			for _, tile := range in {
				slices.SortFunc(tile, byKey)
			}
			return in
		}},
		{name: "empty-rank", block: 400, randomize: true, input: func() [][]elem.Rec100 {
			in := uniform(nPer)
			in[2] = nil
			return in
		}},
		// Every estimate is off by more than the (R+2)·K worst case of an
		// honest sample, in alternating directions: the exact counts must
		// disprove the start and the second pass must still be exact.
		{name: "wrong-warm-start", block: 400, randomize: true, msgBound: 2 * msgBound,
			input: func() [][]elem.Rec100 { return uniform(nPer) },
			skew: func(est [][]int64, k int64) {
				for _, e := range est {
					for ri := range e {
						e[ri] += int64(1-2*(ri%2)) * int64(len(e)+3) * k
					}
				}
			}},
		// The selection's working set must not grow with the fleet: the
		// sample, the block cache and one gathered residual, whatever P·R.
		{name: "P16", p: 16, block: 400, input: func() [][]elem.Rec100 { return uniform(nPer) }, randomize: true},
	}
	for _, tc := range cases {
		backends := []string{"sim", "tcp"}
		if p = 4; tc.p != 0 {
			p, backends = tc.p, backends[:1]
		}
		for _, backend := range backends {
			t.Run(tc.name+"_"+backend, func(t *testing.T) {
				input := tc.input()
				cfg := DefaultConfig(p, mem, tc.block)
				cfg.Seed = 7
				cfg.Randomize = tc.randomize
				out := &selectionRun{}
				selectionHook.estimates, selectionHook.splitters = tc.skew, out.capture
				defer func() { selectionHook.estimates, selectionHook.splitters = nil, nil }()
				// results[rank] holds rank's measurements: all of them in
				// the one Result of a sim run, one Result per tcp machine.
				results := make([]*Result[elem.Rec100], p)
				if backend == "sim" {
					res, err := Sort[elem.Rec100](elem.Rec100Codec{}, cfg, input)
					if err != nil {
						t.Fatal(err)
					}
					for rank := range results {
						results[rank] = res
					}
				} else {
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
				}

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
				bound := tc.msgBound
				if bound == 0 {
					bound = msgBound
				}
				bound = bound * int64(p-1) / 3
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
