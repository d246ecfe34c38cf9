package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"demsort/internal/cluster"
	"demsort/internal/elem"
	"demsort/internal/job"
)

// randomPlan builds a random run directory and splitter matrix for p
// PEs: random run lengths — empty runs, and runs shorter than p, whose
// low PEs hold empty segments, included — and per run p+1 sorted
// splitters from 0 to the run length.
func randomPlan(rng *rand.Rand, p, runs int) *exchanger[elem.KV16] {
	meta := &runsMeta[elem.KV16]{runLens: make([]int64, runs)}
	split := make([][]int64, p+1)
	for i := range split {
		split[i] = make([]int64, runs)
	}
	for ri := range runs {
		switch rng.IntN(4) {
		case 0: // an empty run
		case 1:
			meta.runLens[ri] = rng.Int64N(int64(p))
		default:
			meta.runLens[ri] = rng.Int64N(40 * int64(p))
		}
		cuts := []int64{0, meta.runLens[ri]}
		for range p - 1 {
			cuts = append(cuts, rng.Int64N(meta.runLens[ri]+1))
		}
		slices.Sort(cuts)
		for i := range split {
			split[i][ri] = cuts[i]
		}
	}
	return &exchanger[elem.KV16]{n: &cluster.Node{P: p}, meta: meta, split: split}
}

// TestExchangePieces: the exchange's one stream function, over random
// run directories and splitter matrices. pieces(me, 0..P-1) tile each of
// me's segments exactly, in order; what every sender's pieces(p, q) says
// reaches q adds up, per run, to q's splitter range — the length the
// receiver assembles; and the sub-operation windows of every stream
// tile it for any k.
func TestExchangePieces(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 25))
	for _, p := range []int{1, 2, 5} {
		for trial := range 40 {
			t.Run(fmt.Sprintf("P%d_%d", p, trial), func(t *testing.T) {
				runs := 1 + rng.IntN(6)
				x := randomPlan(rng, p, runs)
				recvd := make([][]int64, p)
				for q := range recvd {
					recvd[q] = make([]int64, runs)
				}
				for me := range p {
					next := make([]int64, runs) // per run: the next untiled position
					for q := range p {
						ps := x.pieces(me, q)
						for i, pc := range ps {
							if pc.lo != next[pc.run] || pc.hi <= pc.lo || i > 0 && ps[i-1].run >= pc.run {
								t.Fatalf("pieces(%d, %d) = %v: not run-major, non-empty and contiguous from %v", me, q, ps, next)
							}
							next[pc.run] = pc.hi
							recvd[q][pc.run] += pc.hi - pc.lo
						}
						for _, k := range []int{1, 3, 7} {
							var got []piece
							for s := range k {
								w, cnt := window(ps, s, k)
								for _, pc := range w {
									cnt -= pc.hi - pc.lo
									if n := len(got); n > 0 && got[n-1].run == pc.run && got[n-1].hi == pc.lo {
										got[n-1].hi = pc.hi
									} else {
										got = append(got, pc)
									}
								}
								if cnt != 0 {
									t.Fatalf("window(%v, %d, %d): length off by %d", ps, s, k, cnt)
								}
							}
							if !slices.Equal(got, ps) {
								t.Fatalf("windows of %v for k=%d tile %v", ps, k, got)
							}
						}
					}
					for ri, runLen := range x.meta.runLens {
						b := job.RankBounds(runLen, p)
						if next[ri] != b[me+1]-b[me] {
							t.Fatalf("PE %d run %d: pieces cover [0, %d) of a %d-element segment", me, ri, next[ri], b[me+1]-b[me])
						}
					}
				}
				for q := range p {
					for ri := range runs {
						if want := x.split[q+1][ri] - x.split[q][ri]; recvd[q][ri] != want {
							t.Fatalf("PE %d run %d: senders' pieces carry %d elements, splitters give %d", q, ri, recvd[q][ri], want)
						}
					}
				}
			})
		}
	}
}
