package dselect

import (
	"math/rand/v2"
	"slices"
	"testing"

	"demsort/internal/cluster"
	"demsort/internal/cluster/sim"
	"demsort/internal/elem"
	"demsort/internal/mselect"
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

// TestSelectMatchesReferenceCuts is the engine conformance test: with
// one in-memory sequence per PE the generalised engine (through Cuts,
// and called directly) returns exactly what the pre-generalisation Cuts
// body returns, on random slices with heavy duplicates.
func TestSelectMatchesReferenceCuts(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 14))
	for _, p := range []int{1, 2, 3, 4, 7} {
		for iter := 0; iter < 6; iter++ {
			data := make([][]elem.KV16, p)
			var total int64
			for pe := range data {
				data[pe] = make([]elem.KV16, rng.UintN(3000))
				for i := range data[pe] {
					data[pe][i] = elem.KV16{Key: rng.Uint64N(1 + uint64(iter)*7), Val: rng.Uint64()}
				}
				total += int64(len(data[pe]))
			}
			locals := sortedLocals(data)
			ranks := []int64{0, total}
			for i := 1; i < p+3; i++ {
				ranks = append(ranks, int64(i)*total/int64(p+3))
			}
			got, direct, want := make([][]int64, p), make([][][]int64, p), make([][]int64, p)
			m := machine(t, p)
			err := m.Run(func(n *cluster.Node) error {
				got[n.Rank] = Cuts[elem.KV16](kvc, n, locals[n.Rank], ranks)
				direct[n.Rank] = Select[elem.KV16](kvc, n, sliceLocal[elem.KV16]{rank: n.Rank, vals: locals[n.Rank]}, ranks, nil, gatherThreshold)
				want[n.Rank] = referenceCuts[elem.KV16](kvc, n, locals[n.Rank], ranks)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for pe := range want {
				if !slices.Equal(got[pe], want[pe]) {
					t.Fatalf("p=%d iter=%d PE %d: Cuts %v, reference %v", p, iter, pe, got[pe], want[pe])
				}
				for j := range ranks {
					if direct[pe][j][0] != want[pe][j] {
						t.Fatalf("p=%d iter=%d PE %d rank %d: Select %d, reference %d", p, iter, pe, ranks[j], direct[pe][j][0], want[pe][j])
					}
				}
			}
		}
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
				if tc.warm == "none" {
					return nil
				}
				w := make([][]mselect.Interval, len(ranks))
				for j := range ranks {
					w[j] = make([]mselect.Interval, len(l.pcs))
					for s, pc := range l.pcs {
						w[j][s] = mselect.Interval{Lo: want[j][pc.ID] - 3, Hi: want[j][pc.ID] + 3}
						if tc.warm == "sample" {
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
