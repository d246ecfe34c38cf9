// Package pq provides the priority structure of multiway merging: a
// key-inline tournament (loser) tree — the classic engine of k-way
// external merging (Knuth vol. 3).
package pq

// KeyTree is a flat, cache-resident tournament tree over k sorted
// streams whose heads are summarised by 64-bit normalized keys
// (elem.KeyedCodec). It stores no elements at all: internal nodes hold
// (loser stream, loser key) pairs in two flat arrays, so replacing the
// winner and replaying costs exactly ceil(log2 k) uint64 comparisons,
// independent of input order, with no indirect less call and no
// element copies. Each comparison feeds conditional moves, not a
// branch, so the replay does not stall on outcomes the branch predictor
// cannot guess (about half of them, when merging random data). The
// caller keeps the actual stream cursors and feeds the tree the key of
// each new head.
//
// Equal truncated keys are broken by the optional tie callback (the
// comparator fallback for codecs whose key is a prefix, or for
// non-keyed codecs where every key is zero) and finally by stream
// index, which keeps merging deterministic and stable by stream.
type KeyTree struct {
	k     int      // number of leaves (power of two >= streams)
	loser []int32  // per internal node: losing stream index
	lkey  []uint64 // per internal node: the loser's key
	win   int32    // overall winner stream
	key   []uint64 // current head key per stream (^0 when exhausted)
	alive []bool
	wtmp  []int32 // rebuild scratch (winner per node)
	// tie reports whether stream a's head orders strictly before
	// stream b's head; consulted only on equal keys between two live
	// streams. nil means equal keys are equivalent (exact keys).
	tie func(a, b int) bool
}

// deadKey is the sentinel key of an exhausted stream. Live streams may
// carry the same key value; aliveness is always checked on equal keys.
const deadKey = ^uint64(0)

// Reset (re-)initialises the tree — the zero KeyTree is ready for it —
// in place for n streams, reusing its arrays, which keeps repeated
// merges allocation-free. keys[i] is the head key of stream i; live[i]
// reports whether stream i is non-empty. n must be >= 1. tie may be nil
// (see KeyTree).
func (t *KeyTree) Reset(n int, keys []uint64, live []bool, tie func(a, b int) bool) {
	if n < 1 {
		panic("pq: key tree needs at least one stream")
	}
	k := 1
	for k < n {
		k *= 2
	}
	if cap(t.key) < k {
		t.loser = make([]int32, k)
		t.lkey = make([]uint64, k)
		t.key = make([]uint64, k)
		t.alive = make([]bool, k)
	}
	t.k = k
	t.loser = t.loser[:k]
	t.lkey = t.lkey[:k]
	t.key = t.key[:k]
	t.alive = t.alive[:k]
	for i := 0; i < k; i++ {
		if i < n && live[i] {
			t.key[i] = keys[i]
			t.alive[i] = true
		} else {
			t.key[i] = deadKey
			t.alive[i] = false
		}
	}
	t.tie = tie
	t.rebuild()
}

// beatsEq breaks an equal-key comparison between streams a and b:
// exhausted streams lose to live ones, then the comparator fallback,
// then stream index.
func (t *KeyTree) beatsEq(a, b int32) bool {
	switch {
	case !t.alive[a]:
		return false
	case !t.alive[b]:
		return true
	}
	if t.tie != nil {
		if t.tie(int(a), int(b)) {
			return true
		}
		if t.tie(int(b), int(a)) {
			return false
		}
	}
	return a < b
}

// beats reports whether stream a's head orders strictly before stream
// b's head. Exhausted streams carry deadKey, so they lose the key
// comparison against any live smaller key and fall to beatsEq on ties.
func (t *KeyTree) beats(a, b int32) bool {
	ka, kb := t.key[a], t.key[b]
	if ka != kb {
		return ka < kb
	}
	return t.beatsEq(a, b)
}

// rebuild recomputes the whole tree in O(k): winners bottom-up, the
// loser of each comparison stored in the node.
func (t *KeyTree) rebuild() {
	if cap(t.wtmp) < 2*t.k {
		t.wtmp = make([]int32, 2*t.k)
	}
	w := t.wtmp[:2*t.k]
	for i := 0; i < t.k; i++ {
		w[t.k+i] = int32(i)
	}
	for i := t.k - 1; i >= 1; i-- {
		a, b := w[2*i], w[2*i+1]
		if t.beats(a, b) {
			w[i], t.loser[i] = a, b
		} else {
			w[i], t.loser[i] = b, a
		}
		t.lkey[i] = t.key[t.loser[i]]
	}
	t.win = w[1]
}

// DropTie releases the tie callback (and whatever stream data it
// captures) so a pooled tree does not pin the last merge's inputs.
func (t *KeyTree) DropTie() { t.tie = nil }

// Empty reports whether every stream is exhausted.
func (t *KeyTree) Empty() bool { return !t.alive[t.win] }

// Win returns the stream whose head is the overall minimum. It must
// not be consulted when Empty.
func (t *KeyTree) Win() int { return int(t.win) }

// Replace substitutes the winner stream's head key with key (the
// caller advanced that stream's cursor) and replays to the root.
func (t *KeyTree) Replace(key uint64) {
	t.key[t.win] = key
	t.replay(t.win)
}

// Retire marks the winner stream exhausted and replays.
func (t *KeyTree) Retire() {
	t.alive[t.win] = false
	t.key[t.win] = deadKey
	t.replay(t.win)
}

// replay pushes stream s's new head up the tree. Each level is one
// uint64 comparison whose outcome selects, by conditional moves, the
// node's new (loser, loser key) and the climbing winner; both node slots
// are stored unconditionally. Only equal keys take a branch, to beatsEq.
func (t *KeyTree) replay(s int32) {
	loser, lkey := t.loser, t.lkey
	w, wk := s, t.key[s]
	for i := (t.k + int(s)) >> 1; i >= 1; i >>= 1 {
		l, lk := loser[i], lkey[i]
		up := lk < wk
		if lk == wk {
			up = t.beatsEq(l, w)
		}
		if up {
			l, lk, w, wk = w, wk, l, lk
		}
		loser[i], lkey[i] = l, lk
	}
	t.win = w
}
