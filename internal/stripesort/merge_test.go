package stripesort

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"demsort/internal/bufpool"
	"demsort/internal/cluster"
	"demsort/internal/cluster/sim"
	"demsort/internal/elem"
	"demsort/internal/job"
	"demsort/internal/mselect"
	"demsort/internal/workload"
	"demsort/internal/xmerge"
)

// extractFixture is what extract needs of a striped sort's merge: runs
// cut into blocks of bElem elements, the prediction sequence over their
// first elements, and a one-PE pe to merge on.
type extractFixture struct {
	runs [][]elem.KV16
	pred []predEntry[elem.KV16]
}

const fixtureBElem = 8

// newExtractFixture builds r sorted runs of random lengths over keys in
// [0, keys) — few keys, so ties are common and fall to (run, position)
// — and their prediction sequence.
func newExtractFixture(rng *rand.Rand, r int, keys uint64) extractFixture {
	var f extractFixture
	ord := mselect.OrderOf[elem.KV16](kvc)
	for run := range r {
		vs := make([]elem.KV16, rng.IntN(60)+1)
		for i := range vs {
			vs[i] = elem.KV16{Key: rng.Uint64N(keys), Val: rng.Uint64()}
		}
		slices.SortStableFunc(vs, func(a, b elem.KV16) int { return cmp.Compare(a.Key, b.Key) })
		f.runs = append(f.runs, vs)
		for g := 0; g*fixtureBElem < len(vs); g++ {
			v := vs[g*fixtureBElem]
			f.pred = append(f.pred, predEntry[elem.KV16]{first: v, firstKey: ord.Key(v), run: run, blk: int64(g)})
		}
	}
	sort.Slice(f.pred, func(i, j int) bool {
		a, b := f.pred[i], f.pred[j]
		return ord.LessK(a.firstKey, a.first, a.run, a.blk*fixtureBElem, b.firstKey, b.first, b.run, b.blk*fixtureBElem)
	})
	return f
}

// block returns block g of run run, encoded into a pooled buffer and
// viewed in place, as fetch queues it.
func (f extractFixture) block(run int, g int64) piece[elem.KV16] {
	vs := f.runs[run][g*fixtureBElem : min(int(g+1)*fixtureBElem, len(f.runs[run]))]
	raw := bufpool.Get(len(vs) * kvc.Size())
	elem.EncodeInto[elem.KV16](kvc, raw, vs)
	return piece[elem.KV16]{pos: g * fixtureBElem, elems: elem.View[elem.KV16](kvc, raw), raw: raw}
}

// onePE runs fn with a one-PE pe whose merge geometry is the fixture's.
func onePE(t *testing.T, fn func(s *pe[elem.KV16]) error) {
	t.Helper()
	sm, err := sim.New(sim.Config{P: 1, BlockBytes: fixtureBElem * 16, MemElems: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	cfg := testConfig(1)
	if err := sm.Run(func(n *cluster.Node) error {
		n.SetPhase(PhaseMerge)
		return fn(&pe[elem.KV16]{j: &job.Job[elem.KV16]{Plan: job.Plan{BElem: fixtureBElem}}, c: kvc, n: n, cfg: &cfg, ord: mselect.OrderOf[elem.KV16](kvc)})
	}); err != nil {
		t.Fatal(err)
	}
}

// refExtract is extract as the merge did it before it merged in place:
// each run's emittable prefixes concatenated into one sequence, the
// sequences merged into a fresh slice.
func refExtract(s *pe[elem.KV16], pending [][]piece[elem.KV16], barrier *predEntry[elem.KV16]) []elem.KV16 {
	var seqs [][]elem.KV16
	for r := range pending {
		var seq []elem.KV16
		rest := pending[r][:0]
		for _, pc := range pending[r] {
			cnt := len(pc.elems)
			if barrier != nil {
				cnt = sort.Search(cnt, func(i int) bool {
					v := pc.elems[i]
					return !s.ord.LessK(s.ord.Key(v), v, r, pc.pos+int64(i), barrier.firstKey, barrier.first, barrier.run, barrier.blk*fixtureBElem)
				})
			}
			seq = append(seq, pc.elems[:cnt]...)
			if cnt < len(pc.elems) {
				rest = append(rest, piece[elem.KV16]{pos: pc.pos + int64(cnt), elems: pc.elems[cnt:]})
			}
		}
		pending[r] = rest
		if len(seq) > 0 {
			seqs = append(seqs, seq)
		}
	}
	return xmerge.AppendMerge[elem.KV16](kvc, nil, seqs)
}

// TestExtractMatchesConcatMerge: merging each piece's emittable prefix
// in place, piece by piece, gives the batch the old concatenate-then-
// merge gave, and leaves the same pieces pending — on runs with few
// keys, barriers that fall inside pieces, and leftovers that wait
// several batches. The fetched blocks are pooled buffers viewed in
// place, so a buffer recycled while its piece still waits is poisoned
// under -race and shows as a mismatch.
func TestExtractMatchesConcatMerge(t *testing.T) {
	var inside int // barriers that fell inside a piece
	for seed := range uint64(40) {
		rng := rand.New(rand.NewPCG(seed, 11))
		f := newExtractFixture(rng, rng.IntN(6)+1, []uint64{2, 5, 1 << 40}[seed%3])
		onePE(t, func(s *pe[elem.KV16]) error {
			pending, ref := make([][]piece[elem.KV16], len(f.runs)), make([][]piece[elem.KV16], len(f.runs))
			for cursor, batch := 0, 0; cursor < len(f.pred); batch++ {
				end := min(cursor+rng.IntN(4)+1, len(f.pred))
				for _, e := range f.pred[cursor:end] {
					pc := f.block(e.run, e.blk)
					pending[e.run] = append(pending[e.run], pc)
					ref[e.run] = append(ref[e.run], piece[elem.KV16]{pos: pc.pos, elems: slices.Clone(pc.elems)})
				}
				var barrier *predEntry[elem.KV16]
				if end < len(f.pred) {
					barrier = &f.pred[end]
				}
				got, want := s.extract(pending, barrier), refExtract(s, ref, barrier)
				if !slices.Equal(got, want) {
					return fmt.Errorf("seed %d batch %d: extract merged %v, want %v", seed, batch, got, want)
				}
				for r := range pending {
					if len(pending[r]) != len(ref[r]) {
						return fmt.Errorf("seed %d batch %d run %d: %d pieces pending, want %d", seed, batch, r, len(pending[r]), len(ref[r]))
					}
					for i, pc := range pending[r] {
						if pc.pos%fixtureBElem != 0 {
							inside++
						}
						if pc.pos != ref[r][i].pos || !slices.Equal(pc.elems, ref[r][i].elems) {
							return fmt.Errorf("seed %d batch %d run %d: pending piece %d at %d is %v, want %v at %d", seed, batch, r, i, pc.pos, pc.elems, ref[r][i].elems, ref[r][i].pos)
						}
					}
				}
				cursor = end
			}
			return nil
		})
	}
	if inside == 0 {
		t.Fatal("no barrier fell inside a piece")
	}
}

// closureKV16 is KV16 as a codec without any extension: no bulk codec,
// no keys, and no in-place view, so fetch and SortAcross decode.
type closureKV16 struct{}

func (closureKV16) Size() int                    { return 16 }
func (closureKV16) Encode(d []byte, v elem.KV16) { kvc.Encode(d, v) }
func (closureKV16) Decode(s []byte) elem.KV16    { return kvc.Decode(s) }
func (closureKV16) Less(a, b elem.KV16) bool     { return a.Key < b.Key }

// TestStripedClosureCodecMatchesKV16: a codec elem.View cannot alias
// takes its decode fallback in fetch and SortAcross, and sorts to the
// very output — ties included — KV16Codec's views give.
func TestStripedClosureCodecMatchesKV16(t *testing.T) {
	for _, kind := range []workload.Kind{workload.Uniform, workload.AllEqual} {
		cfg := testConfig(4)
		input := workload.Generate(kind, 4, 5200, 29)
		want, err := Sort[elem.KV16](kvc, cfg, input)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Sort[elem.KV16](closureKV16{}, cfg, input)
		if err != nil {
			t.Fatal(err)
		}
		if want.Runs < 2 || want.Batches < 2 || !slices.Equal(got.Output, want.Output) {
			t.Fatalf("%s: %d runs, %d batches; closure-only output equal: %v", kind, want.Runs, want.Batches, slices.Equal(got.Output, want.Output))
		}
	}
}
