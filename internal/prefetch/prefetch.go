// Package prefetch implements the prefetching machinery of Appendix A
// (and its background from Barve/Grove/Vitter and
// Hutchinson/Sanders/Vitter): given the prediction sequence — the
// order in which data blocks will be consumed by multiway merging —
// and the disk each block resides on, compute a schedule of parallel
// fetch steps (at most one block per disk per step) using a bounded
// prefetch buffer pool.
//
// Two schedulers are provided:
//
//   - Naive: fetch greedily in prediction order — simple, and good for
//     random block placements, but provably suboptimal in the worst
//     case unless Ω(D log D) buffers are available;
//   - Duality: the optimal algorithm of Hutchinson, Sanders and
//     Vitter, obtained by simulating *buffered writing* of the
//     reversed sequence (prefetching and queued writing are dual) —
//     optimal with any number of buffers ≥ D.
//
// The step counts of the two schedules are compared in the Appendix-A
// ablation benchmark. This is figure code: only that ablation
// (AblationPrefetch) calls it, no sort path does.
package prefetch

// Schedule is a sequence of parallel I/O steps; Steps[t] lists the
// indices (into the prediction sequence) fetched at step t. Within a
// step all blocks reside on distinct disks.
type Schedule struct {
	Steps [][]int
}

// NumSteps returns the schedule length in parallel I/O steps.
func (s *Schedule) NumSteps() int { return len(s.Steps) }

// Naive computes the greedy prediction-order schedule: blocks are
// fetched in consumption order as soon as (a) their disk is free this
// step and (b) a buffer is available — where every block fetched but
// not yet consumed occupies one of the w buffers. Consumption happens
// in prediction order: block i is consumed once fetched and all blocks
// before it are consumed.
//
// disks[i] is the disk of prediction-sequence block i; d is the disk
// count and w >= 1 the number of prefetch buffers.
func Naive(disks []int, d, w int) Schedule {
	n := len(disks)
	fetched := make([]bool, n)
	consumed := 0 // blocks 0..consumed-1 are out of the buffer
	inBuf := 0
	var steps [][]int
	busy := make([]bool, d) // reused across steps: one allocation, cleared per round
	for consumed < n {
		clear(busy)
		var step []int
		// Greedy in prediction order over unfetched blocks.
		for i := consumed; i < n && inBuf+len(step) < w; i++ {
			if fetched[i] || busy[disks[i]] {
				continue
			}
			busy[disks[i]] = true
			step = append(step, i)
		}
		for _, i := range step {
			fetched[i] = true
		}
		inBuf += len(step)
		// Consume the maximal fetched prefix.
		for consumed < n && fetched[consumed] {
			consumed++
			inBuf--
		}
		steps = append(steps, step)
		if len(step) == 0 && consumed < n {
			// Buffer full but the head block is unfetched: this cannot
			// happen with w >= 1, since the head is always fetchable
			// next round — guard against schedule bugs.
			head := consumed
			steps[len(steps)-1] = []int{head}
			fetched[head] = true
			for consumed < n && fetched[consumed] {
				consumed++
			}
		}
	}
	return Schedule{Steps: steps}
}

// Duality computes the optimal prefetching schedule by simulating
// buffered writing of the reversed prediction sequence with w buffers
// and one queue per disk, then reversing the result (the
// prefetching/queued-writing duality of Hutchinson, Sanders and
// Vitter, SIAM J. Comput. 34(6)).
//
// In the (reversed) writing simulation, blocks enter a shared write
// buffer of size w in sequence order; whenever any queue is non-empty,
// one step outputs one block from every non-empty disk queue. The
// reversal of those output steps is an optimal prefetch schedule.
func Duality(disks []int, d, w int) Schedule {
	n := len(disks)
	var steps [][]int
	queued := make([][]int, d) // per-disk FIFO of block indices
	inBuf := 0
	next := n - 1 // next block (in reversed order) to admit
	for next >= 0 || inBuf > 0 {
		// Admit blocks into the write buffer while space remains.
		for next >= 0 && inBuf < w {
			q := disks[next]
			queued[q] = append(queued[q], next)
			inBuf++
			next--
		}
		// One output step: one block per non-empty queue.
		var step []int
		for q := 0; q < d; q++ {
			if len(queued[q]) > 0 {
				step = append(step, queued[q][0])
				queued[q] = queued[q][1:]
				inBuf--
			}
		}
		steps = append(steps, step)
	}
	// Reverse the steps to obtain the prefetch schedule.
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	return Schedule{Steps: steps}
}

// Valid checks that a schedule fetches every block exactly once, never
// two blocks of one disk in a step, never exceeds w live buffers, and
// never consumes a block before it is fetched (consumption is in
// prediction order as soon as the prefix is fetched). It returns false
// with a reason string for diagnostics.
func Valid(s Schedule, disks []int, d, w int) (bool, string) {
	n := len(disks)
	fetchStep := make([]int, n)
	for i := range fetchStep {
		fetchStep[i] = -1
	}
	busy := make([]bool, d) // reused across steps
	for t, step := range s.Steps {
		clear(busy)
		for _, i := range step {
			if i < 0 || i >= n {
				return false, "block index out of range"
			}
			if fetchStep[i] != -1 {
				return false, "block fetched twice"
			}
			if busy[disks[i]] {
				return false, "disk conflict within a step"
			}
			busy[disks[i]] = true
			fetchStep[i] = t
		}
	}
	for _, t := range fetchStep {
		if t == -1 {
			return false, "block never fetched"
		}
	}
	// Buffer occupancy: block i occupies a buffer from its fetch step
	// until the step at which the prefix 0..i is entirely fetched.
	consumeStep := make([]int, n)
	maxSoFar := -1
	for i := 0; i < n; i++ {
		if fetchStep[i] > maxSoFar {
			maxSoFar = fetchStep[i]
		}
		consumeStep[i] = maxSoFar
	}
	occ := make([]int, len(s.Steps)+1)
	for i := 0; i < n; i++ {
		occ[fetchStep[i]]++
		if consumeStep[i]+1 <= len(s.Steps) {
			occ[consumeStep[i]+1]--
		}
	}
	live := 0
	for t := range occ {
		live += occ[t]
		if live > w {
			return false, "buffer pool exceeded"
		}
	}
	return true, ""
}
