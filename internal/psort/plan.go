package psort

// Dispatch constants, measured on a Go 1.24 linux/amd64 host
// (TestReportDispatchCrossovers in plan_test.go is the harness; run
// with -psort.measure to reproduce):
//
//   - radixMinLen: sequential radix vs slices.SortStableFunc on KV16,
//     best-of-reps µs/sort — n=96: 5.7 stable / 6.5 msd; n=128:
//     8.3 / 6.8; n=192: 13.7 / 8.1; n=256: 19.7 / 9.6. The radix wins
//     from ~110 and outright by 192. 192 is retained: past the
//     crossover with margin for branch-unfriendly key distributions.
//   - parMinPerWorker: a parallel sort pays a goroutine join for the
//     build pass and one for the tie fix-up, and starts the bucket
//     queue's workers, so a worker's slice must amortize them. Measured
//     overhead of the parallel machinery (w=2 vs w=1 at GOMAXPROCS=1,
//     where extra wall time IS the overhead, on a 2-vCPU host): 1.20×
//     at n=2 Ki, 1.09× at 4 Ki, 1.03× at 8 Ki and 16 Ki — it fades past
//     ~8 Ki pairs per worker. Worker count derives as min(workers,
//     n/parMinPerWorker), so small inputs degrade smoothly to the
//     sequential engine instead of cliff-edging.
//   - msdInsertion: American-flag recursion hands buckets ≤ 64 pairs
//     to a binary-insertion-style (key, idx) sort; 48–96 measured flat
//     on KV16 1M, 64 picked as the center.
//
// The MSD is the one radix engine because it is the faster one on the
// chunks run formation sorts (Rec100 at one worker on a 2-vCPU host,
// MSD vs a shared-histogram LSD scatter, best-of-run spreads: 1 024
// elements 45–57 µs vs 83–144 µs,
// 4 890 elements 0.33–0.51 ms vs 0.75–0.94 ms, 12 388 elements
// 0.96–1.14 ms vs 1.22–1.40 ms) and needs half the scratch: n pairs
// and no n-element gather buffer. What it gives up is large chunks of
// small elements, where an LSD scatter's sequential passes win: KV16
// at 1 Mi elements sorts in 330 ms against an LSD's 170 ms, at 8 192
// elements in 0.55 ms against 0.47 ms; Rec100 at 100 k elements is
// about even. No run of the benchmark sorts such chunks.
const (
	radixMinLen     = 192
	parMinPerWorker = 8 << 10
	msdInsertion    = 64
)

// radixWorkers returns the parallelism actually used for n pairs: the
// requested worker count, clamped so every worker owns at least
// parMinPerWorker pairs (1 otherwise).
func radixWorkers(n, workers int) int {
	if byLoad := n / parMinPerWorker; byLoad < workers {
		workers = byLoad
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// ScratchBytes returns the bytes of sort scratch Sort draws beyond the
// element slice itself for n elements of a keyed codec: the pooled pair
// buffer and histogram blocks. It implements the same dispatch rules as
// Sort (0 below radixMinLen; worker count clamped identically), so a
// membudget charge computed from it always matches what the sort
// actually acquires. Closure-only codecs never take the radix engine;
// callers charge nothing for them.
func ScratchBytes(n, workers int) int64 {
	if n < radixMinLen {
		return 0
	}
	return int64(n)*pairBytes + int64(radixWorkers(n, workers))*histBytes
}
