package dselect

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"demsort/internal/cluster"
	"demsort/internal/elem"
	"demsort/internal/mselect"
)

// Sorted is a sorted sequence as run formation holds it: element i is
// Vals[Perm[i]] — Vals where it was read, Perm as long, the order
// psort.Order found — or Vals[i] when Perm is nil, Vals being in order.
type Sorted[T any] struct {
	Vals []T
	Perm []int32
}

// Len is the sequence's length.
func (s Sorted[T]) Len() int { return len(s.Vals) }

// At is element i.
func (s Sorted[T]) At(i int) T {
	if s.Perm != nil {
		return s.Vals[s.Perm[i]]
	}
	return s.Vals[i]
}

// Sampled is one element of a pooled regular sample: V, at position Pos
// of PE's sorted chunk, stands for the stretch up to Next, the PE's next
// sample position (its chunk length after the last).
type Sampled[T any] struct {
	V         T
	Key       uint64
	PE        int
	Pos, Next int64
}

// RegularSample is collective, one AllGather: every PE contributes its
// chunk length ln and min(count(ln), ln) elements of its sorted chunk,
// sample i of k at position ⌊ln·i/k⌋ — the length is all a PE has to
// say about where its samples are, count being the same on every PE. It
// returns the pool sorted under ord, the total order on (value, PE,
// position), and the total length of the chunks.
func RegularSample[T any](c elem.Codec[T], ord mselect.Order[T], n *cluster.Node, chunk Sorted[T], count func(ln int64) int64) ([]Sampled[T], int64) {
	sz := c.Size()
	at := func(ln, k, i int64) int64 { return ln * i / k }
	ln := int64(chunk.Len())
	k := min(count(ln), ln)
	buf := make([]byte, 8+int(k)*sz)
	binary.LittleEndian.PutUint64(buf, uint64(ln))
	for i := int64(0); i < k; i++ {
		c.Encode(buf[8+int(i)*sz:][:sz], chunk.At(int(at(ln, k, i))))
	}
	all := n.AllGather(buf)
	var pooled int
	for _, b := range all {
		pooled += (len(b) - 8) / sz
	}
	pool, ends := make([]Sampled[T], 0, pooled), make([]int, len(all))
	var total int64
	for pe, b := range all {
		peLen := int64(binary.LittleEndian.Uint64(b))
		total += peLen
		for i, k := int64(0), min(count(peLen), peLen); i < k; i++ {
			v := c.Decode(b[8+int(i)*sz:][:sz])
			pool = append(pool, Sampled[T]{V: v, Key: ord.Key(v), PE: pe, Pos: at(peLen, k, i), Next: at(peLen, k, i+1)})
		}
		ends[pe] = len(pool)
	}
	return mergeRuns(ord, pool, ends), total
}

// mergeRuns sorts pool under ord, given that it is consecutive runs
// already sorted — a PE's samples, run i ending at ends[i] — by merging
// them pairwise, ⌈log₂ len(ends)⌉ passes through one scratch pool. The
// order is total, so the result is the one sort would give.
func mergeRuns[T any](ord mselect.Order[T], pool []Sampled[T], ends []int) []Sampled[T] {
	less := func(x, y *Sampled[T]) bool { return ord.LessK(x.Key, x.V, x.PE, x.Pos, y.Key, y.V, y.PE, y.Pos) }
	tmp := make([]Sampled[T], len(pool))
	for len(ends) > 1 {
		lo, w := 0, 0
		for i := 0; i < len(ends); i, w = i+2, w+1 {
			mid, hi := ends[i], ends[min(i+1, len(ends)-1)]
			a, b, k := pool[lo:mid], pool[mid:hi], lo
			for ; len(a) > 0 && len(b) > 0; k++ {
				if less(&b[0], &a[0]) {
					tmp[k], b = b[0], b[1:]
				} else {
					tmp[k], a = a[0], a[1:]
				}
			}
			copy(tmp[k+copy(tmp[k:], a):], b)
			ends[w], lo = hi, hi
		}
		ends, pool, tmp = ends[:w], tmp, pool
	}
	return pool
}

// Before returns how many elements of PE me's sorted chunk order before
// sample sp under ord.
func Before[T any](ord mselect.Order[T], chunk Sorted[T], me int, sp Sampled[T]) int64 {
	return int64(sort.Search(chunk.Len(), func(j int) bool {
		v := chunk.At(j)
		return !ord.LessK(ord.Key(v), v, me, int64(j), sp.Key, sp.V, sp.PE, sp.Pos)
	}))
}

// SplitSamples is how many regular samples Split takes of a sorted chunk
// of ln elements: ⌊√(2·ln)⌋.
func SplitSamples(ln int64) int64 { return int64(math.Sqrt(float64(2 * ln))) }

// Split is run formation's exact split (§IV-B) in one sample round: it
// returns this PE's cuts of its sorted chunk at the global ranks ranks(N)
// under the (value, PE, position) total order, and N, the length of all
// PEs' chunks. Rank j's cut lies between the last pooled sample
// (RegularSample, SplitSamples of each chunk) whose rank is at most the
// rank's for certain and the first whose rank is at least it, and Select
// gathers what lies in between to the rank's owner at once. Before a
// sample of PE q at position x lie exactly x of q's elements, and of
// another PE at least one past its last sample before it (none: 0), at
// most up to its first sample after it (none: its length). Along the pool
// hi never falls and lo rises, each by at most the widest sample gap g
// per step, and hi − lo ≤ (P−1)·(g−1): at most 2·P·(g−1) elements lie
// between the two samples.
//
// Every PE must call Split collectively, with ranks giving the same
// ranks on every PE. At P = 1 it communicates nothing.
func Split[T any](c elem.Codec[T], n *cluster.Node, chunk Sorted[T], ranks func(total int64) []int64) ([]int64, int64) {
	if total := int64(chunk.Len()); n.P == 1 {
		rs := ranks(total)
		if slices.ContainsFunc(rs, func(r int64) bool { return r < 0 || r > total }) {
			panic(fmt.Sprintf("dselect: ranks %v outside [0,%d]", rs, total))
		}
		return slices.Clone(rs), total
	}
	ord := mselect.OrderOf(c)
	pool, total := RegularSample(c, ord, n, chunk, SplitSamples)
	rs := ranks(total)
	n.Mem.MustAcquire(int64(len(pool)))
	lo, hi := make([]int64, len(pool)), make([]int64, len(pool))
	seen := make([]int64, n.P) // one past PE q's last sample so far
	var sumLo, sumHi int64
	for t, s := range pool {
		lo[t], hi[t] = sumLo-seen[s.PE]+s.Pos, sumHi
		sumLo += s.Pos + 1 - seen[s.PE]
		seen[s.PE] = s.Pos + 1
		sumHi += s.Next - s.Pos
	}
	brackets := make([][]mselect.Interval, len(rs))
	for j, r := range rs {
		b := mselect.Interval{Hi: int64(chunk.Len())}
		if a := sort.Search(len(pool), func(t int) bool { return hi[t] > r }) - 1; a >= 0 {
			b.Lo = Before(ord, chunk, n.Rank, pool[a])
		}
		if t := sort.Search(len(pool), func(t int) bool { return lo[t] >= r }); t < len(pool) {
			b.Hi = Before(ord, chunk, n.Rank, pool[t])
		}
		brackets[j] = []mselect.Interval{b}
	}
	n.Mem.Release(int64(len(pool)))
	cuts := make([]int64, len(rs))
	for j, cut := range Select(c, n, sliceLocal[T]{rank: n.Rank, vals: chunk}, rs, brackets, atOnce) {
		cuts[j] = cut[0]
	}
	return cuts, total
}

// Cuts is Split at fixed ranks: out[j] of this PE's elements order
// before global rank ranks[j]; summed over the PEs, out[j] is ranks[j].
func Cuts[T any](c elem.Codec[T], n *cluster.Node, local []T, ranks []int64) []int64 {
	out, _ := Split(c, n, Sorted[T]{Vals: local}, func(int64) []int64 { return ranks })
	return out
}

// sliceLocal is Split's one in-memory piece: PE rank's sorted chunk.
type sliceLocal[T any] struct {
	rank int
	vals Sorted[T]
}

func (l sliceLocal[T]) Pieces() []Piece     { return []Piece{{ID: l.rank, Len: int64(l.vals.Len())}} }
func (l sliceLocal[T]) At(_ int, i int64) T { return l.vals.At(int(i)) }
