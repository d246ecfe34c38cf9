package psort

import (
	"slices"
	"sync"

	"demsort/internal/elem"
)

// The radix engine, an in-place American-flag MSD: the shared pass
// (pass.go) builds pairs + per-worker histograms, the column sums give
// a global uniform-digit mask and the bucket boundaries of the most
// significant non-uniform digit, an American-flag cycle scatter
// partitions the pairs in place on that digit, and the resulting
// buckets are sorted independently — in parallel through a work queue
// — by recursive in-place partitioning. Because the pairs carry (key,
// original index), a *distinct* total order, fully sorting them by
// (key, idx) yields exactly the stable sort permutation even though
// the partitioning itself is unstable. Sort then permutes the elements
// once, in place, by cycle following; Order hands the index column out
// instead. Either way sort scratch is n pairs + histograms and no
// element-sized buffer.

// flagPartition partitions a in place by byte digit d using the
// American-flag cycle scatter. h holds a's digit-d counts on entry and
// is consumed (turned into cursors). Bucket j ends up occupying
// positions [Σ_{i<j} h_in[i], Σ_{i<=j} h_in[i]).
func flagPartition(a []keyIdx, d int, h *[256]int32) {
	shift := uint(d * 8)
	var cur, end [256]int32
	sum := int32(0)
	for j := 0; j < 256; j++ {
		cur[j] = sum
		sum += h[j]
		end[j] = sum
	}
	for j := 0; j < 256; j++ {
		for cur[j] < end[j] {
			p := a[cur[j]]
			dig := byte(p.key >> shift)
			for dig != byte(j) {
				q := a[cur[dig]]
				a[cur[dig]] = p
				cur[dig]++
				p = q
				dig = byte(p.key >> shift)
			}
			a[cur[j]] = p
			cur[j]++
		}
	}
}

// nextDigit returns the next lower digit position on which the keys
// disagree globally, or -1 when none remains. Digits uniform across
// the whole input are uniform inside every bucket, so the global mask
// computed once in pass 1 is valid at every recursion level.
func nextDigit(d int, uniform *[8]bool) int {
	for d--; d >= 0; d-- {
		if !uniform[d] {
			return d
		}
	}
	return -1
}

// insertionPairs sorts a small bucket by (key, idx) with an insertion
// sort — the recursion's base case. Comparing the full key (not just
// the remaining digits) is correct and lets the recursion cut off
// without descending further.
func insertionPairs(a []keyIdx) {
	for i := 1; i < len(a); i++ {
		p := a[i]
		j := i - 1
		for j >= 0 && (a[j].key > p.key || (a[j].key == p.key && a[j].idx > p.idx)) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = p
	}
}

// sortPairsByIdx is the all-digits-exhausted base case: every key in a
// is equal, so ordering by original index alone restores stability.
func sortPairsByIdx(a []keyIdx) {
	slices.SortFunc(a, func(x, y keyIdx) int { return int(x.idx) - int(y.idx) })
}

// msdTask is one bucket awaiting recursive sorting: pairs [lo, hi) of
// the shared array, next digit position d.
type msdTask struct {
	lo, hi, d int
}

// msdBucket sorts pairs[lo:hi] by (key, idx) by recursive American-flag
// partitioning on digit d. spawn, when non-nil, offers a large child
// bucket to the work queue; a false return (queue full) recurses
// inline instead, so the queue can never deadlock. spawnMin gates what
// is worth handing off.
func msdBucket(pairs []keyIdx, lo, hi, d int, uniform *[8]bool, spawn func(msdTask) bool, spawnMin int) {
	for {
		n := hi - lo
		if n < 2 {
			return
		}
		if n <= msdInsertion {
			insertionPairs(pairs[lo:hi])
			return
		}
		if d < 0 {
			sortPairsByIdx(pairs[lo:hi])
			return
		}
		shift := uint(d * 8)
		var h [256]int32
		for _, p := range pairs[lo:hi] {
			h[byte(p.key>>shift)]++
		}
		if h[byte(pairs[lo].key>>shift)] == int32(n) {
			// Locally uniform digit: descend without a pass.
			d = nextDigit(d, uniform)
			continue
		}
		flagPartition(pairs[lo:hi], d, &h)
		nd := nextDigit(d, uniform)
		start := lo
		for j := 0; j < 256; j++ {
			c := int(h[j])
			if c > 1 {
				if spawn == nil || c < spawnMin || !spawn(msdTask{lo: start, hi: start + c, d: nd}) {
					msdBucket(pairs, start, start+c, nd, uniform, spawn, spawnMin)
				}
			}
			start += c
		}
		return
	}
}

// msdSortBuckets drains the top-level buckets, in parallel when
// workers > 1. The queue is a buffered channel counted by an
// outstanding-task WaitGroup; producers never block (spawn falls back
// to inline recursion when the buffer is full) so completion is
// guaranteed, and the worker goroutines are joined before return. The
// sorted result is independent of scheduling: buckets are disjoint and
// each is sorted into the unique (key, idx) order.
func msdSortBuckets(pairs []keyIdx, tasks []msdTask, uniform *[8]bool, workers int) {
	spawnMin := len(pairs) / (workers * 8)
	if spawnMin <= msdInsertion {
		spawnMin = msdInsertion + 1
	}
	if workers <= 1 {
		for _, t := range tasks {
			msdBucket(pairs, t.lo, t.hi, t.d, uniform, nil, spawnMin)
		}
		return
	}
	queue := make(chan msdTask, 1024)
	var pending sync.WaitGroup
	spawn := func(t msdTask) bool {
		pending.Add(1)
		select {
		case queue <- t:
			return true
		default:
			pending.Done()
			return false
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range queue {
				msdBucket(pairs, t.lo, t.hi, t.d, uniform, spawn, spawnMin)
				pending.Done()
			}
		}()
	}
	for _, t := range tasks {
		if !spawn(t) {
			// ≤ 256 top-level buckets against a 1024-deep queue: the
			// fallback is unreachable, but keep it total.
			msdBucket(pairs, t.lo, t.hi, t.d, uniform, nil, spawnMin)
		}
	}
	pending.Wait()
	close(queue)
	wg.Wait()
}

// cyclePermute applies the permutation recorded in a (vs_sorted[i] =
// vs[a[i].idx]) to vs in place by following cycles, consuming the idx
// fields as visited markers. One element of temporary space, no
// n-sized buffer. Sequential: cycles span the whole array, so this
// pass does not decompose; it is one linear sweep with random reads.
func cyclePermute[T any](vs []T, a []keyIdx) {
	for i := range a {
		src := a[i].idx
		if src < 0 || int(src) == i {
			a[i].idx = -1
			continue
		}
		tmp := vs[i]
		j := i
		for int(src) != i {
			vs[j] = vs[src]
			a[j].idx = -1
			j = int(src)
			src = a[j].idx
		}
		vs[j] = tmp
		a[j].idx = -1
	}
}

// radixMSD sorts the (key, index) pairs of vs into the stable sort
// order with the in-place American-flag MSD, using up to `workers`
// goroutines for the build pass and the bucket recursion, then permutes
// vs in place (Sort, perm nil) or copies the index column into perm
// (Order). Scratch is one pooled pair buffer plus pooled histograms
// (ScratchBytes).
func radixMSD[T any](kc elem.KeyedCodec[T], vs []T, perm []int32, workers int) {
	n := len(vs)
	checkLen(n)
	var ar arena
	defer ar.release()
	a := ar.pairs(n)
	hists := ar.hists(workers)
	bounds := workerBounds(n, workers)

	runParallel(workers, func(w int) {
		buildPairs(kc, vs, a, bounds[w], bounds[w+1], &hists[w])
	})

	// Global digit column sums → uniform mask + top-digit counts.
	col, uniform := colSums(hists, n)
	dTop := 7
	for dTop >= 0 && uniform[dTop] {
		dTop--
	}

	// dTop < 0: every key equal, the pairs in original order (the
	// identity); the tie fix-up handles the whole slice as one run.
	if dTop >= 0 {
		sizes := col[dTop] // flagPartition consumes its counts
		flagPartition(a, dTop, &col[dTop])
		nd := nextDigit(dTop, &uniform)
		tasks := make([]msdTask, 0, 256)
		start := 0
		for _, c := range sizes {
			if c > 1 {
				tasks = append(tasks, msdTask{lo: start, hi: start + int(c), d: nd})
			}
			start += int(c)
		}
		msdSortBuckets(a, tasks, &uniform, workers)
	}
	if perm != nil {
		for i := range a {
			perm[i] = a[i].idx
		}
	} else if dTop >= 0 {
		cyclePermute(vs, a)
	}

	if !kc.KeyExact() {
		fixupTies(kc, vs, perm, a, bounds, workers)
	}
}
