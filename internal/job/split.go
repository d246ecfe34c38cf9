package job

import (
	"encoding/binary"
	"sort"

	"demsort/internal/cluster"
	"demsort/internal/elem"
	"demsort/internal/mselect"
)

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
// chunk length and min(s, length) elements of its sorted chunk, sample i
// of k at position ⌊length·i/k⌋ — the length is all a PE has to say about
// where its samples are. It returns the pool sorted under ord, the total
// order on (value, PE, position), and the total length of the chunks.
func RegularSample[T any](c elem.Codec[T], ord mselect.Order[T], n *cluster.Node, chunk []T, s int64) ([]Sampled[T], int64) {
	sz := c.Size()
	at := func(ln, k, i int64) int64 { return ln * i / k }
	ln := int64(len(chunk))
	k := min(s, ln)
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+int(k)*sz), uint64(ln))
	for i := int64(0); i < k; i++ {
		buf = elem.AppendEncode(c, buf, chunk[at(ln, k, i):][:1])
	}
	var pool []Sampled[T]
	var total int64
	for pe, b := range n.AllGather(buf) {
		peLen := int64(binary.LittleEndian.Uint64(b))
		total += peLen
		for i, k := int64(0), min(s, peLen); i < k; i++ {
			v := c.Decode(b[8+int(i)*sz:][:sz])
			pool = append(pool, Sampled[T]{V: v, Key: ord.Key(v), PE: pe, Pos: at(peLen, k, i), Next: at(peLen, k, i+1)})
		}
	}
	sort.Slice(pool, func(a, b int) bool {
		x, y := pool[a], pool[b]
		return ord.LessK(x.Key, x.V, x.PE, x.Pos, y.Key, y.V, y.PE, y.Pos)
	})
	return pool, total
}

// Before returns how many elements of PE me's sorted chunk order before
// sample sp under ord.
func Before[T any](ord mselect.Order[T], chunk []T, me int, sp Sampled[T]) int64 {
	return int64(sort.Search(len(chunk), func(j int) bool {
		v := chunk[j]
		return !ord.LessK(ord.Key(v), v, me, int64(j), sp.Key, sp.V, sp.PE, sp.Pos)
	}))
}

// splitExact computes this PE's exact cuts of its sorted chunk at the
// run ranks N/P, 2N/P, … (§IV-B) in one sample round; it also returns N
// and the elements this PE gathered as an owner. Boundary i's cut lies
// between the last pooled sample whose rank is at most the boundary's for
// certain and the first whose rank is at least it: every PE sends the
// owner, PE i, its elements in between and how many order before them
// (one AllToAllv), and the owner selects the rest of the rank among them
// (mselect.Select breaks ties by sequence and position: PE and position)
// and returns every PE its cut (another). Before a sample of PE q at
// position x lie exactly x of q's elements, and of another PE at least
// one past its last sample before it (none: 0), at most up to its first
// sample after it (none: its length). Along the pool hi never falls and
// lo rises, each by at most the widest sample gap g per step, and
// hi − lo ≤ (P−1)·(g−1): at most 2·P·(g−1) elements lie between the two
// samples — SplitResidual, with chunks of at most RunLocal elements.
func (j *Job[T]) splitExact(n *cluster.Node, chunk []T) (cuts []int64, runLen, gathered int64) {
	if n.P == 1 {
		return nil, int64(len(chunk)), 0
	}
	c, ord := j.c, mselect.OrderOf(j.c)
	pool, runLen := RegularSample(c, ord, n, chunk, j.SplitSamples)
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
	ranks := RankBounds(runLen, n.P)
	send, from := make([][]byte, n.P), make([]int64, n.P)
	for i := 1; i < n.P; i++ {
		to := int64(len(chunk))
		if a := sort.Search(len(pool), func(t int) bool { return hi[t] > ranks[i] }) - 1; a >= 0 {
			from[i] = Before(ord, chunk, n.Rank, pool[a])
		}
		if b := sort.Search(len(pool), func(t int) bool { return lo[t] >= ranks[i] }); b < len(pool) {
			to = Before(ord, chunk, n.Rank, pool[b])
		}
		send[i] = elem.AppendEncode(c, binary.LittleEndian.AppendUint64(nil, uint64(from[i])), chunk[from[i]:to])
	}
	n.Mem.Release(int64(len(pool)))
	recv := n.AllToAllv(send)
	answer := make([][]byte, n.P)
	if me := n.Rank; me > 0 {
		want, seqs := ranks[me], make([][]T, n.P)
		for q, b := range recv {
			want -= int64(binary.LittleEndian.Uint64(b))
			seqs[q] = elem.DecodeSlice(c, b[8:], (len(b)-8)/c.Size())
			gathered += int64(len(seqs[q]))
		}
		n.Mem.MustAcquire(gathered)
		for q, cut := range mselect.Select(c, mselect.SliceAccessor[T](seqs), want) {
			answer[q] = binary.LittleEndian.AppendUint64(nil, uint64(cut))
		}
		n.Mem.Release(gathered)
	}
	cluster.RecycleRecv(recv)
	recv = n.AllToAllv(answer)
	cuts = make([]int64, n.P-1)
	for i := range cuts {
		cuts[i] = from[i+1] + int64(binary.LittleEndian.Uint64(recv[i+1]))
	}
	cluster.RecycleRecv(recv)
	return cuts, runLen, gathered
}
