package dselect

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"

	"demsort/internal/cluster"
	"demsort/internal/cluster/sim"
	"demsort/internal/elem"
	"demsort/internal/mselect"
	"demsort/internal/psort"
	"demsort/internal/vtime"
	"demsort/internal/workload"
)

var kvc = elem.KV16Codec{}

func machine(t *testing.T, p int) *sim.Machine {
	t.Helper()
	model := vtime.Default()
	model.DiskJitter = 0
	m, err := sim.New(sim.Config{P: p, BlockBytes: 4096, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// runCuts sorts per-PE data locally and runs distributed Cuts; the
// result is the assembled matrix column[rankIdx][pe] for comparison
// against the central reference.
func runCuts(t *testing.T, p int, data [][]elem.KV16, ranks []int64) [][]int64 {
	t.Helper()
	m := machine(t, p)
	perPE := make([][]int64, p)
	err := m.Run(func(n *cluster.Node) error {
		local := slices.Clone(data[n.Rank])
		slices.SortStableFunc(local, func(a, b elem.KV16) int {
			switch {
			case a.Key < b.Key:
				return -1
			case a.Key > b.Key:
				return 1
			default:
				return 0
			}
		})
		perPE[n.Rank] = Cuts[elem.KV16](kvc, n, local, ranks)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cols := make([][]int64, len(ranks))
	for ri := range ranks {
		cols[ri] = make([]int64, p)
		for pe := 0; pe < p; pe++ {
			cols[ri][pe] = perPE[pe][ri]
		}
	}
	return cols
}

func sortedLocals(data [][]elem.KV16) [][]elem.KV16 {
	out := make([][]elem.KV16, len(data))
	for i, d := range data {
		out[i] = slices.Clone(d)
		slices.SortStableFunc(out[i], func(a, b elem.KV16) int {
			switch {
			case a.Key < b.Key:
				return -1
			case a.Key > b.Key:
				return 1
			default:
				return 0
			}
		})
	}
	return out
}

func TestCutsMatchCentralSelect(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		for _, kind := range []workload.Kind{workload.Uniform, workload.AllEqual, workload.NarrowRange} {
			data := workload.Generate(kind, p, 300+17*p, 99)
			locals := sortedLocals(data)
			total := int64(0)
			for _, l := range locals {
				total += int64(len(l))
			}
			var ranks []int64
			for i := 1; i < p; i++ {
				ranks = append(ranks, int64(i)*total/int64(p))
			}
			ranks = append(ranks, 0, total/3, total) // stress extremes too
			cols := runCuts(t, p, data, ranks)
			acc := mselect.SliceAccessor[elem.KV16](locals)
			for ri, rank := range ranks {
				want := mselect.Select[elem.KV16](kvc, acc, rank)
				if !slices.Equal(cols[ri], want) {
					t.Fatalf("p=%d kind=%s rank=%d: got %v want %v", p, kind, rank, cols[ri], want)
				}
			}
		}
	}
}

func TestCutsSumToRank(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	p := 5
	// Unequal local sizes.
	data := make([][]elem.KV16, p)
	var total int64
	for pe := range data {
		n := 100 + int(rng.UintN(900))
		data[pe] = make([]elem.KV16, n)
		for i := range data[pe] {
			data[pe][i] = elem.KV16{Key: rng.Uint64N(1000), Val: uint64(pe*1_000_000 + i)}
		}
		total += int64(n)
	}
	ranks := []int64{0, 1, total / 4, total / 2, total - 1, total}
	cols := runCuts(t, p, data, ranks)
	for ri, rank := range ranks {
		var sum int64
		for q := 0; q < p; q++ {
			sum += cols[ri][q]
		}
		if sum != rank {
			t.Fatalf("rank %d: cuts sum %d", rank, sum)
		}
	}
}

func TestCutsLargeUniform(t *testing.T) {
	// A larger instance exercising many pivot rounds plus the residual
	// gather-finish.
	p := 8
	data := workload.Generate(workload.Uniform, p, 20000, 123)
	locals := sortedLocals(data)
	total := int64(p * 20000)
	ranks := []int64{total / 2}
	cols := runCuts(t, p, data, ranks)
	want := mselect.Select[elem.KV16](kvc, mselect.SliceAccessor[elem.KV16](locals), total/2)
	if !slices.Equal(cols[0], want) {
		t.Fatalf("got %v want %v", cols[0], want)
	}
}

func TestCutsEmptyPE(t *testing.T) {
	// One PE contributes nothing; cuts must still be exact.
	p := 3
	data := [][]elem.KV16{
		{{Key: 1, Val: 0}, {Key: 5, Val: 1}},
		{},
		{{Key: 2, Val: 2}, {Key: 3, Val: 3}, {Key: 4, Val: 4}},
	}
	cols := runCuts(t, p, data, []int64{2, 5})
	locals := sortedLocals(data)
	acc := mselect.SliceAccessor[elem.KV16](locals)
	for ri, rank := range []int64{2, 5} {
		want := mselect.Select[elem.KV16](kvc, acc, rank)
		if !slices.Equal(cols[ri], want) {
			t.Fatalf("rank %d: got %v want %v", rank, cols[ri], want)
		}
	}
}

func TestCutsManyRanksStress(t *testing.T) {
	p := 4
	perPE := 2500
	data := workload.Generate(workload.WorstCaseLocal, p, perPE, 11)
	locals := sortedLocals(data)
	total := int64(p * perPE)
	var ranks []int64
	for i := 0; i <= 16; i++ {
		ranks = append(ranks, int64(i)*total/16)
	}
	cols := runCuts(t, p, data, ranks)
	acc := mselect.SliceAccessor[elem.KV16](locals)
	for ri, rank := range ranks {
		want := mselect.Select[elem.KV16](kvc, acc, rank)
		if !slices.Equal(cols[ri], want) {
			t.Fatalf("rank %d (%d/16): got %v want %v", rank, ri, cols[ri], want)
		}
	}
}

func TestCutsMoreRanksThanPEs(t *testing.T) {
	// Rank ownership wraps around (owner = j mod P).
	p := 3
	data := workload.Generate(workload.Uniform, p, 500, 21)
	locals := sortedLocals(data)
	total := int64(p * 500)
	var ranks []int64
	for i := 0; i <= 10; i++ {
		ranks = append(ranks, int64(i)*total/10)
	}
	cols := runCuts(t, p, data, ranks)
	acc := mselect.SliceAccessor[elem.KV16](locals)
	for ri, rank := range ranks {
		want := mselect.Select[elem.KV16](kvc, acc, rank)
		if !slices.Equal(cols[ri], want) {
			t.Fatalf("rank %d: got %v want %v", rank, cols[ri], want)
		}
	}
}

// TestSplitCutsAtTheRanksOfTheTotal: Split hands ranks the total length
// of all chunks, returns it, and cuts exactly at the ranks ranks gives —
// here i·N/P, run formation's — on uneven chunks, one PE holding
// everything and chunks of one or two elements (all of them samples).
func TestSplitCutsAtTheRanksOfTheTotal(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5} {
		for name, size := range map[string]func(q int) int{
			"uneven":      func(q int) int { return (389*q + 17) % 1025 },
			"one_has_all": func(q int) int { return 900 * ((q + 1) / p) }, // PE p−1
			"tiny":        func(q int) int { return 1 + q%2 },
		} {
			data := make([][]elem.KV16, p)
			var total int64
			for q := range data {
				data[q] = workload.Generate(workload.HotKey, 1, size(q), uint64(7+q))[0]
				total += int64(len(data[q]))
			}
			locals := sortedLocals(data)
			cuts, totals := make([][]int64, p), make([]int64, p)
			err := machine(t, p).Run(func(n *cluster.Node) error {
				cuts[n.Rank], totals[n.Rank] = Split[elem.KV16](kvc, n, Sorted[elem.KV16]{Vals: locals[n.Rank]}, func(total int64) []int64 {
					ranks := make([]int64, p-1)
					for i := range ranks {
						ranks[i] = int64(i+1) * total / int64(p)
					}
					return ranks
				})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			acc := mselect.SliceAccessor[elem.KV16](locals)
			for i := 1; i < p; i++ {
				want := mselect.Select[elem.KV16](kvc, acc, int64(i)*total/int64(p))
				for q := range cuts {
					if totals[q] != total || cuts[q][i-1] != want[q] {
						t.Fatalf("%s p=%d PE %d rank %d/%d: cut %d of total %d, want %d of %d", name, p, q, i, p, cuts[q][i-1], totals[q], want[q], total)
					}
				}
			}
		}
	}
}

// TestSelectAtOnceChecksTheBrackets: gathered at once, brackets that do
// not hold the cut fail the run instead of yielding cuts.
func TestSelectAtOnceChecksTheBrackets(t *testing.T) {
	const p, perPE = 3, 100
	locals := sortedLocals(workload.Generate(workload.Uniform, p, perPE, 5))
	for name, b := range map[string]mselect.Interval{
		"below": {Lo: 0, Hi: perPE / 4},         // the cut at N/2 is past every bracket
		"above": {Lo: 3 * perPE / 4, Hi: perPE}, // and short of every one
	} {
		err := machine(t, p).Run(func(n *cluster.Node) error {
			Select[elem.KV16](kvc, n, sliceLocal[elem.KV16]{rank: n.Rank, vals: Sorted[elem.KV16]{Vals: locals[n.Rank]}}, []int64{p * perPE / 2}, [][]mselect.Interval{{b}}, atOnce)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "the brackets do not hold the cut") {
			t.Errorf("%s: run ended with %v, want the brackets refused", name, err)
		}
	}
}

// shiftingPiece is one PE's piece whose probes contradict each other:
// every At returns a smaller key than the one before, so a pivot orders
// after everything probed later and no bracket ever shrinks.
type shiftingPiece struct {
	pc    Piece
	calls uint64
}

func (l *shiftingPiece) Pieces() []Piece { return []Piece{l.pc} }
func (l *shiftingPiece) At(int, int64) elem.KV16 {
	l.calls++
	return elem.KV16{Key: ^l.calls}
}

// TestSelectFailsOnInconsistentProbes: probes that answer
// inconsistently fail the run within the round cap, 16·bits.Len64(max
// rank) + 64 rounds, instead of bisecting forever.
func TestSelectFailsOnInconsistentProbes(t *testing.T) {
	const p, perPE = 4, 1000
	err := machine(t, p).Run(func(n *cluster.Node) error {
		loc := &shiftingPiece{pc: Piece{ID: 0, Start: int64(n.Rank) * perPE, Len: perPE}}
		Select[elem.KV16](kvc, n, loc, []int64{p * perPE / 2}, [][]mselect.Interval{{{Lo: 0, Hi: p * perPE}}}, 16)
		return nil
	})
	var aborted *cluster.ErrAborted
	if !errors.As(err, &aborted) || !strings.Contains(err.Error(), "rank 2000 still open after 240 rounds") {
		t.Fatalf("run ended with %v, want it aborted at the round cap", err)
	}
}

// runPieces is a PE's share of R globally sorted sequences cut into
// contiguous per-PE pieces — the shape of the external runs — with every
// k-th global position free and all other probes counted.
type runPieces struct {
	pcs    []Piece
	vals   [][]elem.KV16
	probes int
}

func (l *runPieces) Pieces() []Piece { return l.pcs }
func (l *runPieces) At(s int, i int64) elem.KV16 {
	if (l.pcs[s].Start+i)%l.pcs[s].Stride != 0 {
		l.probes++
	}
	return l.vals[s][i]
}

// TestSelectPiecesMatchCentralSelect runs the engine the way phase two
// does — R sequences, each split over the PEs, sample stride, starting
// brackets — and checks the summed cuts against mselect.Select over the
// whole sequences: from exact brackets, from the full range and from
// the brackets the sample proves (mselect.SampleBrackets), with an empty
// PE and with all keys equal.
func TestSelectPiecesMatchCentralSelect(t *testing.T) {
	const (
		p, r   = 4, 9
		stride = 16
	)
	rng := rand.New(rand.NewPCG(15, 15))
	for _, tc := range []struct {
		name     string
		keyRange uint64
		emptyPE  int
		warm     string
	}{
		{"cold", 1 << 40, -1, "none"},
		{"warm-exact", 1 << 40, -1, "exact"},
		{"warm-duplicates", 5, -1, "exact"},
		{"sample-brackets", 1 << 40, -1, "sample"},
		{"sample-brackets-all-equal", 1, -1, "sample"},
		{"empty-pe", 1 << 40, 2, "exact"},
		{"all-equal", 1, -1, "none"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seqs := make([][]elem.KV16, r)
			locs := make([]*runPieces, p)
			for pe := range locs {
				locs[pe] = &runPieces{}
			}
			var total int64
			for ri := range seqs {
				seqs[ri] = make([]elem.KV16, 200+rng.UintN(600))
				for i := range seqs[ri] {
					seqs[ri][i] = elem.KV16{Key: rng.Uint64N(tc.keyRange), Val: uint64(ri)<<32 | uint64(i)}
				}
				seqs[ri] = sortedLocals([][]elem.KV16{seqs[ri]})[0]
				total += int64(len(seqs[ri]))
				// Uneven contiguous pieces; the empty PE gets none and
				// the last PE takes what is left.
				var start int64
				for pe := 0; pe < p; pe++ {
					left := int64(len(seqs[ri])) - start
					n := min(int64(rng.Uint64N(uint64(2*left/int64(p-pe)+1))), left)
					if pe == tc.emptyPE {
						n = 0
					}
					if pe == p-1 {
						n = left
					}
					locs[pe].pcs = append(locs[pe].pcs, Piece{ID: ri, Start: start, Len: n, Stride: stride})
					locs[pe].vals = append(locs[pe].vals, seqs[ri][start:start+n])
					start += n
				}
			}
			ranks := []int64{0, total / 4, total / 2, 3 * total / 4, total}
			acc := mselect.SliceAccessor[elem.KV16](seqs)
			want := make([][]int64, len(ranks))
			for j, rank := range ranks {
				want[j] = mselect.Select[elem.KV16](kvc, acc, rank)
			}
			// Brackets a few elements around the true cut (exact) or proven
			// from every stride-th element (sample).
			samples, lens := make([]mselect.Sample[elem.KV16], r), make([]int64, r)
			for ri, seq := range seqs {
				lens[ri] = int64(len(seq))
				samples[ri].K = stride
				for i := 0; i < len(seq); i += stride {
					samples[ri].Vals = append(samples[ri].Vals, seq[i])
				}
			}
			proven := mselect.SampleBrackets[elem.KV16](kvc, samples, lens, ranks)
			warmFor := func(l *runPieces) [][]mselect.Interval {
				w := make([][]mselect.Interval, len(ranks))
				for j := range ranks {
					w[j] = make([]mselect.Interval, len(l.pcs))
					for s, pc := range l.pcs {
						switch tc.warm {
						case "none": // each sequence's full range
							w[j][s] = mselect.Interval{Hi: lens[pc.ID]}
						case "exact":
							w[j][s] = mselect.Interval{Lo: want[j][pc.ID] - 3, Hi: want[j][pc.ID] + 3}
						case "sample":
							w[j][s] = proven[j].Seqs[pc.ID]
						}
					}
				}
				return w
			}
			got := make([][][]int64, p)
			m := machine(t, p)
			err := m.Run(func(n *cluster.Node) error {
				got[n.Rank] = Select[elem.KV16](kvc, n, locs[n.Rank], ranks, warmFor(locs[n.Rank]), 64)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for j, rank := range ranks {
				sum := make([]int64, r)
				for pe := range got {
					for s, pc := range locs[pe].pcs {
						sum[pc.ID] += got[pe][j][s]
					}
				}
				if !slices.Equal(sum, want[j]) {
					t.Fatalf("rank %d: summed cuts %v, want %v", rank, sum, want[j])
				}
			}
			for pe, l := range locs {
				t.Logf("PE %d: %d storage probes for %d ranks x %d pieces", pe, l.probes, len(ranks), len(l.pcs))
				// An exact start costs a few probes per bracket, the full
				// range several hundred.
				if tc.warm == "exact" && l.probes > 150 {
					t.Errorf("PE %d: %d storage probes from exact brackets", pe, l.probes)
				}
			}
		})
	}
}

// TestRegularSampleMergesThePool: RegularSample merges its pool of P
// sorted per-PE samples instead of sorting it; on chunks of few distinct
// keys (so ties fall to PE and position), with an empty PE and uneven
// lengths, the pool equals the old sort of the same samples at every P.
func TestRegularSampleMergesThePool(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 16} {
		rng := rand.New(rand.NewPCG(uint64(p), 7))
		chunks := make([][]elem.KV16, p)
		for q := range chunks {
			if q == 1 {
				continue // an empty PE
			}
			for range rng.IntN(40) + 1 {
				chunks[q] = append(chunks[q], elem.KV16{Key: rng.Uint64N(4), Val: rng.Uint64()})
			}
			slices.SortStableFunc(chunks[q], func(a, b elem.KV16) int { return cmp.Compare(a.Key, b.Key) })
		}
		ord := mselect.OrderOf[elem.KV16](kvc)
		count := func(ln int64) int64 { return 7 }
		var want []Sampled[elem.KV16]
		var wantTotal int64
		for q, ch := range chunks {
			ln := int64(len(ch))
			wantTotal += ln
			for i, k := int64(0), min(7, ln); i < k; i++ {
				v := ch[ln*i/k]
				want = append(want, Sampled[elem.KV16]{V: v, Key: ord.Key(v), PE: q, Pos: ln * i / k, Next: ln * (i + 1) / k})
			}
		}
		sort.Slice(want, func(a, b int) bool {
			x, y := want[a], want[b]
			return ord.LessK(x.Key, x.V, x.PE, x.Pos, y.Key, y.V, y.PE, y.Pos)
		})
		m := machine(t, p)
		err := m.Run(func(n *cluster.Node) error {
			pool, total := RegularSample(kvc, ord, n, Sorted[elem.KV16]{Vals: chunks[n.Rank]}, count)
			if total != wantTotal || !slices.Equal(pool, want) {
				return fmt.Errorf("P=%d rank %d: pool %v (total %d), want %v (total %d)", p, n.Rank, pool, total, want, wantTotal)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSplitThroughAPermutation: Split and RegularSample read a chunk
// through the order psort.Order hands out (Sorted.Perm) exactly as they
// read the permuted chunk itself — same pool, same cuts, same total —
// on duplicate-heavy chunks of uneven lengths, one of them empty.
func TestSplitThroughAPermutation(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5} {
		views, sorted := make([]Sorted[elem.KV16], p), make([]Sorted[elem.KV16], p)
		for q := range views {
			vals := workload.Generate(workload.HotKey, 1, (389*q+17)%1025*(q%4), uint64(11+q))[0]
			perm := make([]int32, len(vals))
			psort.Order[elem.KV16](kvc, vals, perm, 2)
			gathered := make([]elem.KV16, len(vals))
			for i, j := range perm {
				gathered[i] = vals[j]
			}
			views[q], sorted[q] = Sorted[elem.KV16]{Vals: vals, Perm: perm}, Sorted[elem.KV16]{Vals: gathered}
		}
		ord := mselect.OrderOf[elem.KV16](kvc)
		ranks := func(total int64) []int64 { return []int64{total / 3, total / 2, total} }
		err := machine(t, p).Run(func(n *cluster.Node) error {
			poolV, totalV := RegularSample(kvc, ord, n, views[n.Rank], SplitSamples)
			poolS, totalS := RegularSample(kvc, ord, n, sorted[n.Rank], SplitSamples)
			if totalV != totalS || !slices.Equal(poolV, poolS) {
				return fmt.Errorf("P=%d rank %d: RegularSample through the permutation differs", p, n.Rank)
			}
			cutsV, _ := Split(kvc, n, views[n.Rank], ranks)
			cutsS, _ := Split(kvc, n, sorted[n.Rank], ranks)
			if !slices.Equal(cutsV, cutsS) {
				return fmt.Errorf("P=%d rank %d: Split cuts %v through the permutation, %v on the permuted chunk", p, n.Rank, cutsV, cutsS)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
