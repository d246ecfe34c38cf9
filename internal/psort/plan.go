package psort

// Path selects the radix engine used for key-normalized codecs.
type Path int

const (
	// PathLSD is the shared-histogram parallel LSD scatter: per-worker
	// digit histograms, a worker×bucket prefix scan assigning disjoint
	// scatter destinations, and a final gather permutation through an
	// n-sized element buffer. Scratch: 2n pairs + histograms + n
	// elements. The faster engine when scratch is free.
	PathLSD Path = iota
	// PathMSD is the in-place American-flag MSD: cycle-following
	// partition on the top non-uniform digit, bucket recursion over a
	// work queue, and one in-place cycle-following element permute.
	// Scratch: n pairs + histograms — no element buffer. Run formation
	// takes it when the LSD scratch does not fit the budget headroom
	// ("scratch charged against M is scratch stolen from run length").
	PathMSD
)

// String names the path in test names.
func (p Path) String() string {
	if p == PathMSD {
		return "msd"
	}
	return "lsd"
}

// Dispatch constants, re-measured for the parallel-scatter engine on a
// Go 1.24 linux/amd64 host (TestReportDispatchCrossovers in
// plan_test.go is the harness; run with -psort.measure to reproduce):
//
//   - radixMinLen: sequential radix vs slices.SortStableFunc on KV16,
//     best-of-reps µs/sort — n=96: 5.7 cmp / 8.1 lsd / 6.5 msd;
//     n=128: 8.3 / 8.6 / 6.8; n=192: 13.7 / 9.4 / 8.1; n=256:
//     19.7 / 11.3 / 9.6. MSD wins from ~110, LSD from ~140, and by 192
//     both radix engines win outright. 192 is retained: it is past the
//     crossover for both paths with margin for branch-unfriendly key
//     distributions, and dispatch stays byte-compatible with the old
//     engine.
//   - parMinPerWorker: the scatter engine pays ~2+digits goroutine
//     joins per sort (build, one per kept digit, gather, copy-back),
//     so a worker's slice must amortize ~10 barrier rounds. Measured
//     overhead of the parallel machinery (w=2 vs w=1 on a single
//     core, where extra wall time IS the overhead): 2.1× at n=2 Ki,
//     1.7× at 8 Ki, 1.5× at 16 Ki, 1.35× at 128 Ki — the constant
//     term fades past ~8 Ki pairs per worker. The old guard
//     (n < 4*workers || n < 1024) protected a pipeline with one join
//     per sort; the per-digit engine needs the ~8 Ki floor. Worker
//     count derives as min(workers, n/parMinPerWorker), so small
//     inputs degrade smoothly to the sequential engine instead of
//     cliff-edging.
//   - msdInsertion: American-flag recursion hands buckets ≤ 64 pairs
//     to a binary-insertion-style (key, idx) sort; 48–96 measured flat
//     on KV16 1M, 64 picked as the center.
//   - closureParMin: the old 1024 floor, still correct for the
//     closure-codec pipeline (unchanged: chunk sorts + mselect +
//     merge), which pays one join per sort, not one per digit.
const (
	radixMinLen     = 192
	parMinPerWorker = 8 << 10
	msdInsertion    = 64
	closureParMin   = 1024
)

// radixWorkers returns the scatter parallelism actually used for n
// pairs: the requested worker count, clamped so every worker owns at
// least parMinPerWorker pairs (1 otherwise).
func radixWorkers(n, workers int) int {
	if byLoad := n / parMinPerWorker; byLoad < workers {
		workers = byLoad
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// ScratchBytes returns the bytes of sort scratch SortPath will draw
// beyond the element slice itself, for a keyed codec of elemSize-byte
// elements: the pooled pair buffers and histogram blocks plus, on the
// LSD path, the n-element gather buffer. It implements the same
// dispatch rules as SortPath (0 below radixMinLen; worker count
// clamped identically), so a membudget charge computed from it always
// matches what the sort actually acquires. Closure-only codecs never
// take the radix engines; callers charge nothing for them.
func ScratchBytes(path Path, elemSize, n, workers int) int64 {
	if n < radixMinLen {
		return 0
	}
	w := radixWorkers(n, workers)
	hist := int64(w) * histBytes
	switch path {
	case PathMSD:
		return int64(n)*pairBytes + hist
	default:
		if w > 1 {
			hist += int64(w) * int64(w) * 256 * 4 // fused next-digit count rows
		}
		return 2*int64(n)*pairBytes + hist + int64(n)*int64(elemSize)
	}
}
