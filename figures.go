package demsort

import (
	"fmt"

	"demsort/internal/baseline"
	"demsort/internal/core"
	"demsort/internal/job"
	"demsort/internal/prefetch"
	"demsort/internal/report"
	"demsort/internal/sortbench"
	"demsort/internal/vtime"
	"demsort/internal/workload"
)

// Figure re-exports the report figure type.
type Figure = report.Figure

// Table re-exports the report table type.
type Table = report.Table

// FigureScale holds the scaled-down machine parameters used to
// regenerate the paper's figures. The paper's testbed sorted 100 GiB
// per PE against 16 GiB of node memory with 8 MiB blocks; the scale
// preserves the governing ratios — runs per input R = N/M, blocks per
// run m/B, seek-to-transfer ratio of a block access — while shrinking
// absolute sizes by ~2.7·10⁵ so a laptop regenerates every figure in
// minutes. Reported times are modelled seconds at the scaled size.
type FigureScale struct {
	// MemElems is m, the per-PE memory budget in elements.
	MemElems int64
	// BlockBytes is B (stands in for the paper's 8 MiB).
	BlockBytes int
	// SmallBlockBytes stands in for the paper's 2 MiB (4:1 ratio).
	SmallBlockBytes int
	// PerPE is the input per PE in elements (the paper's 100 GiB/PE).
	PerPE int
	// PSweep lists the machine sizes of the scaling figures.
	PSweep []int
	// Fig3P is the machine size of the per-PE breakdown figure.
	Fig3P int
	// Seed drives all workload generation and randomization.
	Seed uint64
}

// DefaultScale returns the standard scaled parameters: R = 12 runs,
// 32 blocks per run, P up to 64.
func DefaultScale() FigureScale {
	return FigureScale{
		MemElems:        8192,
		BlockBytes:      1024,
		SmallBlockBytes: 256,
		PerPE:           24576,
		PSweep:          []int{1, 2, 4, 8, 16, 32, 64},
		Fig3P:           32,
		Seed:            2009,
	}
}

// scaledModel calibrates the cost model to the scaled block size: the
// paper's 8 MiB blocks pay ~8 ms seek against ~30 ms transfer, so the
// scaled per-block seek keeps that 0.27 ratio. Without this, tiny
// blocks would be entirely seek-bound and every figure's shape would
// collapse.
func scaledModel(blockBytes int) vtime.CostModel {
	m := vtime.Default()
	transfer := float64(blockBytes) / (m.DiskBandwidth * float64(m.DisksPerNode))
	m.DiskSeek = 0.27 * transfer
	// Fixed per-message latency must shrink with the data scale too,
	// or it would dominate the (scaled-down) transfer times in a way
	// it does not at paper scale.
	m.NetLatency *= float64(blockBytes) / float64(8<<20)
	return m
}

func (s FigureScale) options(p, blockBytes int, randomize bool) Options {
	opts := NewOptions(p, s.MemElems, blockBytes)
	opts.Model = scaledModel(blockBytes)
	opts.Randomize = randomize
	opts.Seed = s.Seed
	// The in-memory sample is N/K elements on every PE and N grows
	// with P (weak scaling), so K must grow alongside — the same
	// pressure the paper's footnote 12 notes for its block count.
	// (At our scale m/B is 16x smaller than the paper's, so it binds
	// much earlier.)
	opts.SampleK = int64(blockBytes / 16)
	if k := int64(32 * p); k > opts.SampleK {
		opts.SampleK = k
	}
	return opts
}

// runCanonical sorts one scaled workload and returns the result.
func (s FigureScale) runCanonical(p, blockBytes int, kind workload.Kind, randomize bool) (*Result[KV16], error) {
	input := workload.Generate(kind, p, s.PerPE, s.Seed)
	return Sort[KV16](KV16Codec{}, s.options(p, blockBytes, randomize), input)
}

// phaseTimes is the sweep Figures 2, 4 and 6 share: per-phase and total
// running times of one input kind, weak scaling over the P sweep.
func (s FigureScale) phaseTimes(title string, kind workload.Kind, randomize bool) (*Figure, error) {
	f := &Figure{Title: title, XLabel: "P", YLabel: "modelled time [s]"}
	for _, p := range s.PSweep {
		res, err := s.runCanonical(p, s.BlockBytes, kind, randomize)
		if err != nil {
			return nil, fmt.Errorf("%s, P=%d: %w", title, p, err)
		}
		for _, ph := range res.PhaseNames {
			f.Add(ph, float64(p), res.MaxWall(ph))
		}
		f.Add("total", float64(p), res.TotalWall())
	}
	return f, nil
}

// Fig2 reproduces Figure 2: per-phase running times for random input,
// weak scaling over the P sweep.
func Fig2(s FigureScale) (*Figure, error) {
	return s.phaseTimes("Fig 2: running times, random input (per phase)", workload.Uniform, true)
}

// Fig3 reproduces Figure 3: per-PE wall-clock and I/O time of every
// phase on one machine size (disk-speed spread shows as variance).
func Fig3(s FigureScale) (*Figure, error) {
	f := &Figure{Title: fmt.Sprintf("Fig 3: per-PE phase times, %d nodes, random input", s.Fig3P),
		XLabel: "PE", YLabel: "modelled time [s]"}
	res, err := s.runCanonical(s.Fig3P, s.BlockBytes, workload.Uniform, true)
	if err != nil {
		return nil, err
	}
	for rank, stats := range res.PerPE {
		for _, ph := range res.PhaseNames {
			st := stats[ph]
			f.Add(ph+", wall clock", float64(rank), st.Wall)
			f.Add(ph+", IO", float64(rank), st.IOTime)
		}
	}
	return f, nil
}

// Fig4 reproduces Figure 4: worst-case input *with* randomization.
func Fig4(s FigureScale) (*Figure, error) {
	return s.phaseTimes("Fig 4: running times, worst-case input with randomization", workload.WorstCaseLocal, true)
}

// Fig5 reproduces Figure 5: all-to-all I/O volume divided by N for the
// four input/parameter combinations, on a log axis.
func Fig5(s FigureScale) (*Figure, error) {
	f := &Figure{Title: "Fig 5: I/O volume of the all-to-all phase / N", XLabel: "P",
		YLabel: "exchange I/O / N", LogY: true}
	type curve struct {
		name      string
		kind      workload.Kind
		randomize bool
		block     int
	}
	curves := []curve{
		{"worst-case input, non-randomized", workload.WorstCaseLocal, false, s.BlockBytes},
		{fmt.Sprintf("worst-case input, randomized, B=%dB", s.BlockBytes), workload.WorstCaseLocal, true, s.BlockBytes},
		{fmt.Sprintf("worst-case input, randomized, B=%dB", s.SmallBlockBytes), workload.WorstCaseLocal, true, s.SmallBlockBytes},
		{"random input", workload.Uniform, true, s.BlockBytes},
	}
	for _, cv := range curves {
		for _, p := range s.PSweep {
			res, err := s.runCanonical(p, cv.block, cv.kind, cv.randomize)
			if err != nil {
				return nil, fmt.Errorf("fig5 %s P=%d: %w", cv.name, p, err)
			}
			read, written := res.PhaseBytes(core.PhaseExchange)
			ratio := float64(read+written) / float64(res.N*int64(res.ElemSize))
			if ratio <= 0 {
				ratio = 1e-4 // log-axis floor for zero-I/O points
			}
			f.Add(cv.name, float64(p), ratio)
		}
	}
	return f, nil
}

// Fig6 reproduces Figure 6: worst-case input *without* randomization —
// the all-to-all penalty of up to ~50%.
func Fig6(s FigureScale) (*Figure, error) {
	return s.phaseTimes("Fig 6: running times, worst-case input without randomization", workload.WorstCaseLocal, false)
}

// SortBenchTable reproduces the Section VI SortBenchmark comparison at
// scale: 100-byte records, the three systems head to head on one
// machine, reporting modelled sorted GB/min and the relative factors
// (the paper reports absolute records against other teams' machines;
// the reproduction compares algorithms on identical hardware).
func SortBenchTable(s FigureScale) (*Table, error) {
	const p = 8
	memElems := int64(32768)
	blockBytes := 100 * 32
	perPE := int64(65536)
	model := scaledModel(blockBytes)

	input := make([][]Rec100, p)
	for pe := 0; pe < p; pe++ {
		input[pe] = sortbench.Generate(s.Seed, int64(pe)*perPE, perPE)
	}
	nBytes := float64(int64(p) * perPE * 100)
	gbMin := func(wall float64) string {
		return fmt.Sprintf("%.1f", nBytes/1e9/(wall/60))
	}

	tbl := &Table{
		Title:   "SortBenchmark-style comparison (scaled GraySort regime, identical machine)",
		Headers: []string{"system", "passes (I/O)", "comm/N", "modelled time [s]", "modelled GB/min", "exact partition"},
	}

	copts := NewOptions(p, memElems, blockBytes)
	copts.Model = model
	copts.Seed = s.Seed
	copts.SampleK = 512
	cres, err := Sort[Rec100](Rec100Codec{}, copts, input)
	if err != nil {
		return nil, fmt.Errorf("sortbench canonical: %w", err)
	}
	var cio, cnet int64
	for _, ph := range cres.PhaseNames {
		r, w := cres.PhaseBytes(ph)
		cio += r + w
		cnet += cres.NetBytes(ph)
	}
	tbl.AddRow("CanonicalMergeSort (this paper)",
		fmt.Sprintf("%.2f", float64(cio)/nBytes/2),
		fmt.Sprintf("%.2f", float64(cnet)/nBytes),
		fmt.Sprintf("%.3f", cres.TotalWall()), gbMin(cres.TotalWall()), "yes")

	sopts := NewStripedOptions(p, memElems, blockBytes)
	sopts.Model = model
	sopts.Seed = s.Seed
	sres, err := SortStriped[Rec100](Rec100Codec{}, sopts, input)
	if err != nil {
		return nil, fmt.Errorf("sortbench striped: %w", err)
	}
	var sio, snet int64
	for _, ph := range sres.PhaseNames {
		r, w := sres.PhaseBytes(ph)
		sio += r + w
		snet += sres.NetBytes(ph)
	}
	tbl.AddRow("Globally striped mergesort (Sec. III)",
		fmt.Sprintf("%.2f", float64(sio)/nBytes/2),
		fmt.Sprintf("%.2f", float64(snet)/nBytes),
		fmt.Sprintf("%.3f", sres.TotalWall()), gbMin(sres.TotalWall()), "striped")

	bopts := baseline.DefaultConfig(p, memElems, blockBytes)
	bopts.Model = model
	bopts.Seed = s.Seed
	bres, err := baseline.SampleSort[Rec100](Rec100Codec{}, bopts, input)
	if err != nil {
		return nil, fmt.Errorf("sortbench baseline: %w", err)
	}
	tbl.AddRow("Sample sort (NOW-Sort style)",
		"2.00",
		"~1",
		fmt.Sprintf("%.3f", bres.TotalWall()), gbMin(bres.TotalWall()),
		fmt.Sprintf("no (imbalance %.2f)", bres.Imbalance()))

	// MinuteSort regime: input below one run, the N < M fast path
	// ("for the results mentioned so far, N < M ... only 2 I/Os per
	// block of elements are needed").
	mPerPE := int64(3072)
	minput := make([][]Rec100, p)
	for pe := 0; pe < p; pe++ {
		minput[pe] = sortbench.Generate(s.Seed+1, int64(pe)*mPerPE, mPerPE)
	}
	mres, err := Sort[Rec100](Rec100Codec{}, copts, minput)
	if err != nil {
		return nil, fmt.Errorf("sortbench minutesort: %w", err)
	}
	mBytes := float64(int64(p) * mPerPE * 100)
	var mio int64
	for _, ph := range mres.PhaseNames {
		r, w := mres.PhaseBytes(ph)
		mio += r + w
	}
	tbl.AddRow("CanonicalMergeSort, N < M (MinuteSort regime)",
		fmt.Sprintf("%.2f", float64(mio)/mBytes/2),
		"~1",
		fmt.Sprintf("%.3f", mres.TotalWall()),
		fmt.Sprintf("%.1f", mBytes/1e9/(mres.TotalWall()/60)), "yes")
	return tbl, nil
}

// CapacityTable evaluates the §IV-D capacity discussion with the
// paper's real machine parameters: how much data each algorithm can
// sort in two passes.
func CapacityTable() *Table {
	tbl := &Table{
		Title:   "Two-pass capacity (paper machine: m = 16 GiB/node, B = 8 MiB, 16-byte elements)",
		Headers: []string{"P", "canonical (per PE)", "canonical (total)", "striped (total = M^2/B bound)"},
	}
	const elemSize = 16
	m := int64(16) << 30 / elemSize // elements per node
	b := int64(8) << 20 / elemSize
	for _, p := range []int{1, 16, 195, 1024} {
		cfg := NewOptions(p, m, 8<<20)
		perPE := cfg.MaxElemsPerPE(elemSize)
		striped := (int64(p) * m / 2) * (int64(p) * m / (4 * b)) // runSize · maxRuns
		tbl.AddRow(
			fmt.Sprintf("%d", p),
			fmtBytes(perPE*elemSize),
			fmtBytes(perPE*elemSize*int64(p)),
			fmtBytes(striped*elemSize),
		)
	}
	return tbl
}

func fmtBytes(b int64) string {
	const unit = 1024
	suffixes := []string{"B", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB"}
	f := float64(b)
	i := 0
	for f >= unit && i < len(suffixes)-1 {
		f /= unit
		i++
	}
	return fmt.Sprintf("%.1f %s", f, suffixes[i])
}

// AblationBlockSize sweeps the block size on worst-case randomized
// input: Appendix C predicts the redistribution overhead grows like
// √B ("the reorganization overhead grows with the square-root of B").
func AblationBlockSize(s FigureScale) (*Figure, error) {
	f := &Figure{Title: "Ablation: exchange I/O vs block size (worst case, randomized)",
		XLabel: "B [bytes]", YLabel: "exchange I/O / N", LogY: true}
	const p = 16
	for _, bb := range []int{256, 512, 1024, 2048} {
		res, err := s.runCanonical(p, bb, workload.WorstCaseLocal, true)
		if err != nil {
			return nil, err
		}
		read, written := res.PhaseBytes(core.PhaseExchange)
		f.Add("exchange I/O / N", float64(bb), float64(read+written)/float64(res.N*int64(res.ElemSize)))
	}
	return f, nil
}

// AblationOverlap measures §IV-E overlapping: run-formation wall time
// with and without asynchronous I/O.
func AblationOverlap(s FigureScale) (*Figure, error) {
	f := &Figure{Title: "Ablation: I/O overlap on/off", XLabel: "P", YLabel: "modelled total time [s]"}
	for _, p := range []int{4, 16} {
		for _, overlap := range []bool{true, false} {
			opts := s.options(p, s.BlockBytes, true)
			opts.Overlap = overlap
			input := workload.Generate(workload.Uniform, p, s.PerPE, s.Seed)
			res, err := Sort[KV16](KV16Codec{}, opts, input)
			if err != nil {
				return nil, err
			}
			name := "overlap on"
			if !overlap {
				name = "overlap off"
			}
			f.Add(name, float64(p), res.TotalWall())
		}
	}
	return f, nil
}

// AblationSampleK sweeps the sampling distance K. Every round of the
// owner-computes selection locates the pivot inside one sample cell of K
// elements per live run segment, so the modelled selection wall grows
// with log(K/B): from 0.13× run formation at K = 8 blocks to 0.34× at
// K = 64 at this scale (memory is 128 blocks, and each PE's dozen cuts
// are searched in 384 blocks of input) — without the cliff of the
// sequential walk, which cost 10× more at K = 64 blocks than at 32, once
// its cache no longer held a cell.
func AblationSampleK(s FigureScale) (*Figure, error) {
	f := &Figure{Title: "Ablation: multiway selection time vs sample distance K",
		XLabel: "K [elements]", YLabel: "selection wall [s]", LogY: true}
	const p = 16
	for _, k := range []int64{512, 1024, 2048, 4096} {
		opts := s.options(p, s.BlockBytes, true)
		opts.SampleK = k
		input := workload.Generate(workload.Uniform, p, s.PerPE, s.Seed)
		res, err := Sort[KV16](KV16Codec{}, opts, input)
		if err != nil {
			return nil, err
		}
		f.Add("selection", float64(k), res.MaxWall(core.PhaseSelection))
		f.Add("run formation (reference)", float64(k), res.MaxWall(core.PhaseRunForm))
	}
	return f, nil
}

// AblationStripedVsCanonical compares the two algorithms of the paper
// head to head (Sections III vs IV): I/O volume, communication volume
// and modelled time on the same machine and inputs. The striped sorter
// appears under both stripe layouts — its row of the randomisation
// ablation: with Randomize the run stripes are rotated and a merge batch
// draws on every PE, without it one PE homes each stretch of the
// prediction sequence and the same merge takes more, smaller batches.
func AblationStripedVsCanonical(s FigureScale) (*Table, error) {
	const p = 16
	// Smaller input than the scaling figures: the striped algorithm
	// additionally keeps the full prediction table (N/B entries) in
	// every PE's memory (the paper's footnote 12 pressure), and the
	// comparison runs both systems on the identical machine.
	perPE := 16384
	tbl := &Table{
		Title:   "Canonical (Sec. IV) vs globally striped (Sec. III), P=16",
		Headers: []string{"input", "system", "I/O / N", "comm / N", "merge batches", "modelled time [s]"},
	}
	for _, kind := range []workload.Kind{workload.Uniform, workload.WorstCaseLocal} {
		input := workload.Generate(kind, p, perPE, s.Seed)
		nBytes := float64(int64(p) * int64(perPE) * 16)

		row := func(system, batches string, st *job.Stats) {
			var io, net int64
			for _, ph := range st.PhaseNames {
				r, w := st.PhaseBytes(ph)
				io += r + w
				net += st.NetBytes(ph)
			}
			tbl.AddRow(string(kind), system,
				fmt.Sprintf("%.2f", float64(io)/nBytes),
				fmt.Sprintf("%.2f", float64(net)/nBytes),
				batches,
				fmt.Sprintf("%.4f", st.TotalWall()))
		}
		cres, err := Sort[KV16](KV16Codec{}, s.options(p, s.BlockBytes, true), input)
		if err != nil {
			return nil, err
		}
		row("canonical", "-", &cres.Stats)

		for _, layout := range []struct {
			system    string
			randomize bool
		}{{"striped", true}, {"striped, unrotated", false}} {
			sopts := NewStripedOptions(p, s.MemElems, s.BlockBytes)
			sopts.Model = scaledModel(s.BlockBytes)
			sopts.Seed = s.Seed
			sopts.Randomize = layout.randomize
			sres, err := SortStriped[KV16](KV16Codec{}, sopts, input)
			if err != nil {
				return nil, err
			}
			row(layout.system, fmt.Sprint(sres.Batches), &sres.Stats)
		}
	}
	return tbl, nil
}

// AblationPrefetch compares the Appendix A prefetching schedules:
// greedy prediction order vs the optimal duality algorithm, on bursty
// block placements with varying buffer pools.
func AblationPrefetch() (*Figure, error) {
	f := &Figure{Title: "Ablation (App. A): prefetch schedule length, bursty placement, D=8 disks",
		XLabel: "prefetch buffers", YLabel: "parallel I/O steps"}
	const d = 8
	const n = 4096
	disks := make([]int, n)
	// Bursty adversarial placement.
	seedState := uint64(0x2009)
	next := func(mod int) int {
		seedState = seedState*6364136223846793005 + 1442695040888963407
		return int((seedState >> 33) % uint64(mod))
	}
	for i := 0; i < n; {
		disk := next(d)
		l := 1 + next(12)
		for j := 0; j < l && i < n; j++ {
			disks[i] = disk
			i++
		}
	}
	lb := 0
	perDisk := make([]int, d)
	for _, q := range disks {
		perDisk[q]++
		lb = max(lb, perDisk[q])
	}
	for _, w := range []int{d, 2 * d, 4 * d, 8 * d} {
		naive := prefetch.Naive(disks, d, w)
		dual := prefetch.Duality(disks, d, w)
		f.Add("naive (prediction order)", float64(w), float64(naive.NumSteps()))
		f.Add("optimal (duality)", float64(w), float64(dual.NumSteps()))
		f.Add("lower bound (max per-disk)", float64(w), float64(lb))
	}
	return f, nil
}

// BaselineSkewTable (supporting §II): sample sort collapses on skew,
// canonical does not.
func BaselineSkewTable(s FigureScale) (*Table, error) {
	const p = 8
	tbl := &Table{
		Title:   "Exact splitting vs sampled splitters under skew (P=8)",
		Headers: []string{"input", "system", "max part / ideal", "modelled time [s]"},
	}
	for _, kind := range []workload.Kind{workload.Uniform, workload.HotKey} {
		input := workload.Generate(kind, p, s.PerPE, s.Seed)
		cres, err := Sort[KV16](KV16Codec{}, s.options(p, s.BlockBytes, true), input)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(string(kind), "canonical", "1.00 (exact)", fmt.Sprintf("%.4f", cres.TotalWall()))

		bopts := baseline.DefaultConfig(p, s.MemElems, s.BlockBytes)
		bopts.Model = scaledModel(s.BlockBytes)
		bopts.Seed = s.Seed
		bres, err := baseline.SampleSort[KV16](KV16Codec{}, bopts, input)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(string(kind), "sample sort",
			fmt.Sprintf("%.2f", bres.Imbalance()),
			fmt.Sprintf("%.4f", bres.TotalWall()))
	}
	return tbl, nil
}
