// Package xmerge implements sequential multiway merging of sorted
// sequences, the inner loop of both the run-formation internal sort and
// the final merge phase. The loop exists once, with two entries:
// AppendMerge over in-memory sequences and MergeBlocks, the streaming
// entry, over streams that arrive block by block.
//
// Merging runs on the flat key-inline tournament tree (pq.KeyTree):
// stream heads are summarised by 64-bit normalized keys
// (elem.Keyed), so the replay after each emitted element is a
// handful of uint64 comparisons instead of indirect comparator calls,
// each selecting the climbing winner by conditional moves rather than
// a branch.
// Codecs without keys — and key ties of codecs whose key is a prefix —
// fall back to Codec.Less transparently. Each stream's next keys are
// extracted a window at a time (elem.KeysInto), so the loop reads a
// head key from a slice instead of calling the codec per element. The
// per-merge scratch (key tree, per-stream keys/liveness/positions/key
// windows) is element-type-independent and recycled through a pool, so
// repeated merges allocate nothing.
package xmerge

import (
	"slices"
	"sync"

	"demsort/internal/elem"
	"demsort/internal/pq"
)

// merger is the reusable scratch of one multiway merge. It holds no
// element data, only stream bookkeeping, so a single global pool
// serves merges of every element type.
type merger struct {
	tree pq.KeyTree
	keys []uint64
	live []bool
	pos  []int
	// Stream i's keys of its current block's elements [wlo[i], whi[i])
	// start at win[i*keyWindow].
	win      []uint64
	wlo, whi []int
}

// keyWindow is the number of head keys extracted per stream at a time.
const keyWindow = 32

var mergerPool = sync.Pool{New: func() any { return new(merger) }}

// getMerger returns a merger with zeroed n-sized stream arrays.
func getMerger(n int) *merger {
	m := mergerPool.Get().(*merger)
	if cap(m.keys) < n {
		m.keys = make([]uint64, n)
		m.live = make([]bool, n)
		m.pos = make([]int, n)
		m.win = make([]uint64, n*keyWindow)
		m.wlo = make([]int, n)
		m.whi = make([]int, n)
	}
	m.keys = m.keys[:n]
	m.live = m.live[:n]
	m.pos = m.pos[:n]
	m.win = m.win[:n*keyWindow]
	m.wlo = m.wlo[:n]
	m.whi = m.whi[:n]
	for i := 0; i < n; i++ {
		m.keys[i] = 0
		m.live[i] = false
		m.pos[i] = 0
		m.whi[i] = 0
	}
	return m
}

// fillWindow extracts the keys of stream i's next keyWindow elements
// from s[p] on (p < len(s)) into its window.
func fillWindow[T any](c elem.Codec[T], m *merger, i int, s []T, p int) {
	n := min(keyWindow, len(s)-p)
	elem.KeysInto(c, m.win[i*keyWindow:i*keyWindow+n], s[p:p+n])
	m.wlo[i], m.whi[i] = p, p+n
}

// putMerger releases the scratch; the tie closure is dropped first so
// the pooled tree does not keep the caller's sequences reachable.
func putMerger(m *merger) {
	m.tree.DropTie()
	mergerPool.Put(m)
}

// AppendMerge merges the sorted sequences seqs, appending to dst, which
// it grows only when its capacity runs out. Ties are broken by sequence
// index, making the output deterministic.
func AppendMerge[T any](c elem.Codec[T], dst []T, seqs [][]T) []T {
	if len(seqs) == 1 {
		return append(dst, seqs[0]...)
	}
	dst, _ = merge(c, dst, seqs, nil, 0, nil)
	return dst
}

// MergeBlocks k-way merges k sorted streams that arrive block by block
// — the loop of every external merge pass. next(i) returns stream i's
// next non-empty block, nil at its end; a block only has to stay valid
// until the following next(i). The merged sequence is written in
// output blocks of len(out): the first into out, each next one into the
// slice emit returned for the one before, which is at least as long as
// out. Each full block goes to emit (the last may be shorter), valid for
// the duration of the call. emit's error ends the merge. Ties are
// broken by stream index.
func MergeBlocks[T any](c elem.Codec[T], k int, out []T, next func(i int) []T, emit func([]T) ([]T, error)) error {
	cur := make([][]T, k)
	for i := range cur {
		cur[i] = next(i)
	}
	rest, err := merge(c, out[:0], cur, next, len(out), emit)
	if err == nil && len(rest) > 0 {
		_, err = emit(rest)
	}
	return err
}

// merge is the one tournament loop. Stream i's current block is cur[i],
// read at the pooled pos[i]; refill(i), nil for in-memory sequences,
// replaces an exhausted block. The merged elements are appended to dst;
// once dst holds outLen of them (outLen > 0) it goes to emit, and the
// merge goes on in the slice emit returns. The tree replays on raw
// uint64 keys; the comparator is consulted only when inexact keys tie.
func merge[T any](c elem.Codec[T], dst []T, cur [][]T, refill func(i int) []T, outLen int, emit func([]T) ([]T, error)) ([]T, error) {
	k := len(cur)
	if k == 0 {
		return dst, nil
	}
	kc := elem.Keyed(c)
	m := getMerger(k)
	defer putMerger(m)
	pos := m.pos
	for i, s := range cur {
		if len(s) > 0 {
			fillWindow(c, m, i, s, 0)
			m.keys[i], m.live[i] = m.win[i*keyWindow], true
		}
	}
	var tie func(a, b int) bool
	if !kc.KeyExact() {
		tie = func(a, b int) bool { return kc.Less(cur[a][pos[a]], cur[b][pos[b]]) }
	}
	t := &m.tree
	t.Reset(k, m.keys, m.live, tie)
	for !t.Empty() {
		i := t.Win()
		s, p := cur[i], pos[i]
		// Not append(dst, s[p]): that copies the element to a temporary
		// first, in case growing dst moves it.
		dst = slices.Grow(dst, 1)[:len(dst)+1]
		dst[len(dst)-1] = s[p]
		p++
		if len(dst) == outLen {
			next, err := emit(dst)
			if err != nil {
				return dst, err
			}
			dst = next[:0]
		}
		if p == len(s) && refill != nil {
			s, p = refill(i), 0
			cur[i] = s
			m.whi[i] = 0
		}
		pos[i] = p
		if p < len(s) {
			if p >= m.whi[i] {
				fillWindow(c, m, i, s, p)
			}
			t.Replace(m.win[i*keyWindow+p-m.wlo[i]])
		} else {
			t.Retire()
		}
	}
	return dst, nil
}
