package job

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"

	"demsort/internal/cluster"
	"demsort/internal/cluster/sim"
	"demsort/internal/dselect"
	"demsort/internal/elem"
)

var kvc = elem.KV16Codec{}

func TestGeometry(t *testing.T) {
	for _, tc := range []struct {
		rf           float64
		mem          int64
		blocksPerRun int
	}{
		{0.2, 1000, 12}, // 200 elements = 12 whole 16-element blocks
		{0.5, 1000, 31},
		{0.25, 1000, 15},
		{0.25, 0, 64}, // no budget: 64 blocks per run
		{0.25, 8, 1},  // never less than one block
	} {
		cfg := Defaults(4, tc.mem, 16*16)
		g, err := cfg.Geometry(16, tc.rf)
		if err != nil {
			t.Fatal(err)
		}
		if g.BElem != 16 || g.BlocksPerRun != tc.blocksPerRun || g.RunLocal != int64(16*tc.blocksPerRun) {
			t.Errorf("run fraction %v, MemElems %d: %+v, want %d blocks per run", tc.rf, tc.mem, g, tc.blocksPerRun)
		}
	}
	g := Geometry{RunLocal: 100}
	for nPerPE, want := range map[int64]int64{0: 1, 1: 1, 100: 1, 101: 2, 1000: 10} {
		if got := g.Runs(nPerPE); got != want {
			t.Errorf("Runs(%d) = %d, want %d", nPerPE, got, want)
		}
	}
	small := Defaults(4, 1000, 15)
	if _, err := small.Geometry(16, 0.25); err == nil || !strings.Contains(err.Error(), "smaller than one element") {
		t.Errorf("15-byte blocks of 16-byte elements: %v", err)
	}
	noPE := Defaults(0, 1000, 256)
	if _, err := noPE.Geometry(16, 0.25); err == nil {
		t.Error("P = 0 accepted")
	}
}

func TestRankBounds(t *testing.T) {
	if got, want := RankBounds(10, 4), []int64{0, 2, 5, 7, 10}; !slices.Equal(got, want) {
		t.Errorf("RankBounds(10, 4) = %v, want %v", got, want)
	}
	if got, want := RankBounds(0, 3), []int64{0, 0, 0, 0}; !slices.Equal(got, want) {
		t.Errorf("RankBounds(0, 3) = %v, want %v", got, want)
	}
	b := RankBounds(1<<40+7, 7)
	for i := 1; i < len(b); i++ {
		if d := b[i] - b[i-1]; d != (1<<40+7)/7 && d != (1<<40+7)/7+1 {
			t.Errorf("part %d has %d elements", i-1, d)
		}
	}
}

func TestEncodePartsRoundTrip(t *testing.T) {
	chunk := make([]elem.KV16, 10)
	for i := range chunk {
		chunk[i] = elem.KV16{Key: uint64(i), Val: uint64(100 + i)}
	}
	cuts := []int64{0, 3, 3, 10} // five parts: two of them empty, one at each end
	send := EncodeParts(kvc, chunk, cuts)
	if len(send) != len(cuts)+1 {
		t.Fatalf("%d parts for %d cuts", len(send), len(cuts))
	}
	var back []elem.KV16
	for q, b := range send {
		lo, hi := int64(0), int64(len(chunk))
		if q > 0 {
			lo = cuts[q-1]
		}
		if q < len(cuts) {
			hi = cuts[q]
		}
		if int64(len(b)) != (hi-lo)*16 {
			t.Errorf("part %d: %d bytes, want %d elements", q, len(b), hi-lo)
		}
		back = elem.AppendDecode(kvc, back, b, len(b)/16)
	}
	cluster.RecycleRecv(send)
	if !slices.Equal(back, chunk) {
		t.Errorf("parts decode to %v", back)
	}
}

// tiles builds per-PE inputs of the given sizes with unique Vals, keys
// drawn from keyRange values (1 = all equal).
func tiles(sizes []int, keyRange uint64, seed uint64) [][]elem.KV16 {
	rng := rand.New(rand.NewPCG(seed, 1))
	in := make([][]elem.KV16, len(sizes))
	val := uint64(0)
	for pe, sz := range sizes {
		in[pe] = make([]elem.KV16, sz)
		for i := range in[pe] {
			in[pe][i] = elem.KV16{Key: rng.Uint64N(keyRange), Val: val}
			val++
		}
	}
	return in
}

func byKeyVal(a, b elem.KV16) int {
	return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Val, b.Val))
}

// samePermutation reports whether a and b hold the same elements.
func samePermutation(a, b []elem.KV16) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, byKeyVal)
	slices.SortFunc(b, byKeyVal)
	return slices.Equal(a, b)
}

// onSim opens a job over input on a fresh sim machine and runs fn on
// every PE.
func onSim(t *testing.T, cfg Common, input [][]elem.KV16, fn func(j *Job[elem.KV16], n *cluster.Node) error) {
	t.Helper()
	j, err := Open(kvc, &cfg, input, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Run(func(n *cluster.Node) error { return fn(j, n) }); err != nil {
		t.Fatal(err)
	}
}

// TestStartChecksAdoptedMachine: the geometry comes from the config, the
// volume and the budget from the machine, so Start refuses a machine
// built with another P, block size or memory budget.
func TestStartChecksAdoptedMachine(t *testing.T) {
	for _, tc := range []struct {
		name    string
		machine sim.Config
		wantErr string
	}{
		{"same", sim.Config{P: 2, BlockBytes: 256, MemElems: 1024}, ""},
		{"other P", sim.Config{P: 3, BlockBytes: 256, MemElems: 1024}, "machine has 3 PEs"},
		{"other block size", sim.Config{P: 2, BlockBytes: 512, MemElems: 1024}, "512-byte blocks"},
		{"other budget", sim.Config{P: 2, BlockBytes: 256, MemElems: 4096}, "budget of 4096"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := sim.New(tc.machine)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			cfg := Defaults(2, 1024, 256)
			cfg.Machine = m
			j, err := Open(kvc, &cfg, make([][]elem.KV16, 2), 0.25)
			if err != nil {
				t.Fatal(err)
			}
			err = j.Start()
			if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("Start on a machine built as %+v: %v, want %q", tc.machine, err, tc.wantErr)
			}
		})
	}
}

// TestFormRuns drives the shared phase 1 on the sim backend with the
// exact run sort: per run, the segments handed to store — concatenated in rank order — are
// sorted and are a permutation of the blocks that run was formed from,
// each segment is exactly its rank's RankBounds share, and the budget
// holds nothing but the documented 2·len(seg) during store and is back
// at its entry level afterwards.
func TestFormRuns(t *testing.T) {
	const bElem, mem = 16, 1024 // RunLocal = 256 elements = 16 blocks
	for _, tc := range []struct {
		name     string
		sizes    []int
		keyRange uint64
	}{
		{"p1", []int{700}, 1 << 40},
		{"p1_single_run", []int{200}, 1 << 40},
		{"p3_empty_rank", []int{600, 0, 300}, 1 << 40},
		{"p4_uneven", []int{700, 33, 256, 511}, 1 << 40},
		{"p4_all_equal", []int{500, 0, 700, 40}, 1},
		{"p3_few_keys", []int{300, 300, 10}, 3},
		{"p4_empty_input", []int{0, 0, 0, 0}, 1},
	} {
		for _, randomize := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s_randomize=%v", tc.name, randomize), func(t *testing.T) {
				p := len(tc.sizes)
				input := tiles(tc.sizes, tc.keyRange, 42)
				cfg := Defaults(p, mem, bElem*16)
				cfg.Randomize = randomize
				type seg struct {
					runLen, segStart int64
					elems            []elem.KV16
				}
				segs := make([][]seg, p) // [rank][run]
				runCount := make([]int, p)
				onSim(t, cfg, input, func(j *Job[elem.KV16], n *cluster.Node) error {
					spans, err := j.Load(n)
					if err != nil {
						return err
					}
					n.SetPhase("run formation")
					entry := n.Mem.Used()
					runCount[n.Rank], err = j.FormRuns(n, spans, 0xABC, j.SortExact, func(run int, runLen, segStart int64, s []elem.KV16) error {
						if run != len(segs[n.Rank]) {
							return fmt.Errorf("rank %d: store called for run %d after %d runs", n.Rank, run, len(segs[n.Rank]))
						}
						if used := n.Mem.Used(); used != entry+2*int64(len(s)) {
							return fmt.Errorf("rank %d run %d: %d elements charged during store, want entry %d + 2·%d", n.Rank, run, used, entry, len(s))
						}
						segs[n.Rank] = append(segs[n.Rank], seg{runLen, segStart, slices.Clone(s)})
						return nil
					})
					if err != nil {
						return err
					}
					if used := n.Mem.Used(); used != entry {
						return fmt.Errorf("rank %d: %d elements charged after FormRuns, %d on entry", n.Rank, used, entry)
					}
					if peak := n.Mem.Peak(); peak > mem {
						return fmt.Errorf("rank %d: peak %d over budget %d", n.Rank, peak, mem)
					}
					return nil
				})

				maxTile := slices.Max(tc.sizes)
				wantRuns := max((maxTile+255)/256, 1)
				var all, got []elem.KV16
				for _, part := range input {
					all = append(all, part...)
				}
				for rank := range segs {
					if runCount[rank] != wantRuns || len(segs[rank]) != wantRuns {
						t.Fatalf("rank %d: %d runs reported, %d stored, want %d", rank, runCount[rank], len(segs[rank]), wantRuns)
					}
				}
				for r := 0; r < wantRuns; r++ {
					var run, formedFrom []elem.KV16
					runLen := segs[0][r].runLen
					bounds := RankBounds(runLen, p)
					for rank := 0; rank < p; rank++ {
						s := segs[rank][r]
						if s.runLen != runLen || s.segStart != bounds[rank] || int64(len(s.elems)) != bounds[rank+1]-bounds[rank] {
							t.Fatalf("run %d rank %d: runLen %d segStart %d len %d, want %d, %d, %d",
								r, rank, s.runLen, s.segStart, len(s.elems), runLen, bounds[rank], bounds[rank+1]-bounds[rank])
						}
						run = append(run, s.elems...)
						tile := input[rank]
						formedFrom = append(formedFrom, tile[min(r*256, len(tile)):min((r+1)*256, len(tile))]...)
					}
					if !elem.IsSorted[elem.KV16](kvc, run) {
						t.Fatalf("run %d is not sorted across the ranks", r)
					}
					if !randomize && !samePermutation(run, formedFrom) {
						t.Fatalf("run %d is not a permutation of its input blocks", r)
					}
					got = append(got, run...)
				}
				if !samePermutation(got, all) {
					t.Fatal("the runs together are not a permutation of the input")
				}
			})
		}
	}
}

// callLog is a Transport that records the name of every communication
// call the phase code makes through it.
type callLog struct {
	cluster.Transport
	calls []string
}

func (l *callLog) Barrier() { l.calls = append(l.calls, "Barrier"); l.Transport.Barrier() }
func (l *callLog) AllToAllv(send [][]byte) [][]byte {
	l.calls = append(l.calls, "AllToAllv")
	return l.Transport.AllToAllv(send)
}
func (l *callLog) AllGather(data []byte) [][]byte {
	l.calls = append(l.calls, "AllGather")
	return l.Transport.AllGather(data)
}
func (l *callLog) AllReduceInt64(v int64, op string) int64 {
	l.calls = append(l.calls, "AllReduceInt64")
	return l.Transport.AllReduceInt64(v, op)
}

// TestSortExactIsTheExactRunSort pins the run sort core passes to
// FormRuns: SortExact makes exactly the calls that run formation made
// inline before the run sort became a parameter — the run length's
// AllReduce, the rounds of dselect.Cuts, one data AllToAllv — in that
// order, and leaves every PE with exactly its RankBounds share.
func TestSortExactIsTheExactRunSort(t *testing.T) {
	const p = 4
	chunks := tiles([]int{300, 0, 257, 90}, 1<<40, 11)
	var exact, inline [p][]string
	onSim(t, Defaults(p, 4096, 256), make([][]elem.KV16, p), func(j *Job[elem.KV16], n *cluster.Node) error {
		n.SetPhase("run formation")
		sorted := func() []elem.KV16 {
			chunk := slices.Clone(chunks[n.Rank])
			slices.SortStableFunc(chunk, byKeyVal)
			n.Mem.MustAcquire(int64(len(chunk)))
			return chunk
		}
		log := &callLog{Transport: n.Transport()}
		ln := cluster.NewNode(log, n.NodeStats(), n.Vol, n.Mem)

		seg, segStart, runLen, err := j.SortExact(ln, sorted(), nil)
		if err != nil {
			return err
		}
		bounds := RankBounds(647, p)
		if runLen != 647 || segStart != bounds[n.Rank] || int64(len(seg)) != bounds[n.Rank+1]-bounds[n.Rank] {
			return fmt.Errorf("rank %d: run of %d, segment [%d, +%d), want 647 and [%d, %d)", n.Rank, runLen, segStart, len(seg), bounds[n.Rank], bounds[n.Rank+1])
		}
		n.Mem.Release(2 * int64(len(seg)))
		exact[n.Rank], log.calls = log.calls, nil

		chunk := sorted()
		total := ln.AllReduceInt64(int64(len(chunk)), "sum")
		ref := j.SortAcross(ln, chunk, dselect.Cuts(kvc, ln, chunk, RankBounds(total, p)[1:p]), nil)
		n.Mem.Release(2 * int64(len(ref)))
		inline[n.Rank] = log.calls
		if !slices.Equal(seg, ref) {
			return fmt.Errorf("rank %d: SortExact's segment differs from the inline sequence's", n.Rank)
		}
		return nil
	})
	for rank := range exact {
		calls := exact[rank]
		if !slices.Equal(calls, inline[rank]) {
			t.Fatalf("rank %d: SortExact called %v, the inline sequence %v", rank, calls, inline[rank])
		}
		if len(calls) < 3 || calls[0] != "AllReduceInt64" || calls[len(calls)-1] != "AllToAllv" {
			t.Fatalf("rank %d: calls %v, want AllReduceInt64 … AllToAllv", rank, calls)
		}
	}
}

// TestSortAcross drives the distributed-sort tail with cuts that are
// order-consistent but not balanced — the striped merge batch's use:
// every PE cuts its sorted chunk at the same key thresholds.
func TestSortAcross(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sizes    []int
		keyRange uint64
	}{
		{"p1", []int{100}, 1000},
		{"p3_empty_rank", []int{120, 0, 75}, 1000},
		{"p4_uneven", []int{200, 1, 64, 130}, 1000},
		{"p4_all_equal", []int{50, 0, 70, 4}, 1}, // every threshold is 0: everything lands on the last rank
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := len(tc.sizes)
			chunks := tiles(tc.sizes, tc.keyRange, 7)
			out := make([][]elem.KV16, p)
			onSim(t, Defaults(p, 1024, 256), make([][]elem.KV16, p), func(j *Job[elem.KV16], n *cluster.Node) error {
				n.SetPhase("merge")
				chunk := slices.Clone(chunks[n.Rank])
				slices.SortStableFunc(chunk, byKeyVal)
				cuts := make([]int64, p-1)
				for q := range cuts {
					threshold := tc.keyRange * uint64(q+1) / uint64(p)
					cuts[q] = int64(sort.Search(len(chunk), func(i int) bool { return chunk[i].Key >= threshold }))
				}
				entry := n.Mem.Used()
				n.Mem.MustAcquire(int64(len(chunk)))
				merged := j.SortAcross(n, chunk, cuts, make([]elem.KV16, 0, 8)) // a destination too small to hold it
				if used := n.Mem.Used(); used != entry+2*int64(len(merged)) {
					return fmt.Errorf("rank %d: %d elements charged for a result of %d", n.Rank, used-entry, len(merged))
				}
				n.Mem.Release(2 * int64(len(merged)))
				out[n.Rank] = merged
				return nil
			})
			var all, got []elem.KV16
			for rank := range chunks {
				all = append(all, chunks[rank]...)
				got = append(got, out[rank]...)
			}
			if !elem.IsSorted[elem.KV16](kvc, got) {
				t.Fatal("results do not concatenate to a sorted sequence")
			}
			if !samePermutation(got, all) {
				t.Fatal("results are not a permutation of the chunks")
			}
			if tc.keyRange == 1 && len(out[p-1]) != len(all) {
				t.Fatalf("all-equal keys under threshold cuts: the last rank got %d of %d", len(out[p-1]), len(all))
			}
		})
	}
}
