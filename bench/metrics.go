package main

// The metric registry: every number the bench reports, with its unit,
// direction, layer, and — written down before measuring — which
// end-to-end metric on which workload it should move. BENCHMARK.json
// lists the same names (a test keeps the two in step).

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Layer  string
	Moves  string
	// Exact marks a count that is expected to repeat exactly from run
	// to run; the report says whether it did.
	Exact bool
}

// The bounds are what this sandbox can resolve, not what one would
// like: its effective speed drifts by about ±20 % in waves of a couple
// of minutes (seen on the latency-bound workloads; a pure-compute
// calibration loop does not track it), so ten 20-second runs of
// canon_smallblock and striped_uniform spread by ~20 % between
// quartiles, the two bulk workloads by 4-7 %. Claims below the bound
// need the paired-runs method of the choosing-metrics guide.
var endToEnd = []metricDef{
	{Name: "sort_wall_s", Unit: "s", Better: "lower", Bound: 0.25,
		Moves: "median fleet wall as the launcher prints it (port reservation to last worker exit); MB/s = input bytes / this"},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25,
		Moves: "user+sys CPU of the launcher's process tree (P workers + the launcher's valsort pass)"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20,
		Moves: "max RSS of any one process in that tree: memory must stay O(M), not O(N/P)"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Moves: "gensort (+ tile sort) + fsync of the workload's input, median of several set-ups"},
}

const (
	onAll      = "sort_wall_s, cpu_s on every workload"
	onUniform  = "sort_wall_s on canon_uniform"
	onSmall    = "sort_wall_s on canon_smallblock only"
	onShards   = "sort_wall_s on canon_shards_norand only"
	onStriped  = "sort_wall_s, cpu_s on striped_uniform only"
	onBigInput = "sort_wall_s via load/collect on the 100 MB workloads"
)

// tracedMetrics come from the traced run of a workload.
var tracedMetrics = []metricDef{
	{Name: "core.load_s", Unit: "s", Layer: "core", Moves: onAll},
	{Name: "core.runform_s", Unit: "s", Layer: "core", Moves: onUniform},
	{Name: "core.selection_s", Unit: "s", Layer: "core", Moves: onSmall},
	{Name: "core.exchange_s", Unit: "s", Layer: "core", Moves: onShards},
	{Name: "core.merge_s", Unit: "s", Layer: "core", Moves: onAll},
	{Name: "core.collect_s", Unit: "s", Layer: "core", Moves: onAll},
	{Name: "core.runform_self_s", Unit: "s", Layer: "core", Moves: "cpu_s, sort_wall_s on canon_uniform (psort + xmerge + elem)"},
	{Name: "core.merge_self_s", Unit: "s", Layer: "core", Moves: "cpu_s, sort_wall_s on canon_uniform (xmerge/pq + elem)"},
	{Name: "core.unattributed_s", Unit: "s", Layer: "core", Moves: "sort_wall_s: slowest rank's wall minus its named phases (init, result assembly, part-file publish)"},
	{Name: "core.runs", Unit: "count", Layer: "core", Moves: "core.selection_s, core.merge_s", Exact: true},
	{Name: "core.subops", Unit: "count", Layer: "core", Moves: "core.exchange_s", Exact: true},

	{Name: "stripesort.load_s", Unit: "s", Layer: "stripesort", Moves: onStriped},
	{Name: "stripesort.runform_s", Unit: "s", Layer: "stripesort", Moves: onStriped},
	{Name: "stripesort.merge_s", Unit: "s", Layer: "stripesort", Moves: onStriped},
	{Name: "stripesort.collect_s", Unit: "s", Layer: "stripesort", Moves: onStriped},
	{Name: "stripesort.runform_self_s", Unit: "s", Layer: "stripesort", Moves: onStriped},
	{Name: "stripesort.merge_self_s", Unit: "s", Layer: "stripesort", Moves: onStriped},

	{Name: "blockio.read_s", Unit: "s", Layer: "blockio", Moves: "sort_wall_s, cpu_s (sys) everywhere; per-op cost on canon_smallblock"},
	{Name: "blockio.write_s", Unit: "s", Layer: "blockio", Moves: "sort_wall_s, cpu_s (sys) everywhere; per-op cost on canon_smallblock"},
	{Name: "blockio.read_ops", Unit: "count", Layer: "blockio", Moves: "blockio.read_s on canon_smallblock", Exact: true},
	{Name: "blockio.write_ops", Unit: "count", Layer: "blockio", Moves: "blockio.write_s on canon_smallblock", Exact: true},
	{Name: "blockio.read_xn", Unit: "xN", Layer: "blockio", Moves: "blockio.read_s on the 100 MB workloads", Exact: true},
	{Name: "blockio.write_xn", Unit: "xN", Layer: "blockio", Moves: "blockio.write_s on the 100 MB workloads", Exact: true},
	{Name: "blockio.peak_disk_xn", Unit: "xN", Layer: "blockio", Moves: "none (the in-place bound)", Exact: true},

	{Name: "tcp.bringup_s", Unit: "s", Layer: "cluster/tcp", Moves: "sort_wall_s everywhere (fixed cost)"},
	{Name: "tcp.a2a_s", Unit: "s", Layer: "cluster/tcp", Moves: "core.runform_s; mostly waiting for the slowest rank"},
	{Name: "tcp.a2a_calls", Unit: "count", Layer: "cluster/tcp", Moves: "tcp.a2a_s", Exact: true},
	{Name: "tcp.stream_s", Unit: "s", Layer: "cluster/tcp", Moves: "core.exchange_s on canon_shards_norand; stripesort.collect_s"},
	{Name: "tcp.collective_s", Unit: "s", Layer: "cluster/tcp", Moves: onSmall + "; falls when compute gets faster too"},
	{Name: "tcp.collective_calls", Unit: "count", Layer: "cluster/tcp", Moves: "tcp.collective_s", Exact: true},
	{Name: "tcp.p2p_s", Unit: "s", Layer: "cluster/tcp", Moves: "core.selection_s on canon_smallblock"},
	{Name: "tcp.p2p_msgs", Unit: "count", Layer: "cluster/tcp", Moves: "tcp.p2p_s on canon_smallblock"},
	{Name: "tcp.sent_xn", Unit: "xN", Layer: "cluster/tcp", Moves: "tcp.a2a_s, tcp.stream_s"},
	{Name: "tcp.msgs", Unit: "count", Layer: "cluster/tcp", Moves: "tcp.p2p_s, tcp.collective_s"},
	{Name: "tcp.mailbox_peak_mb", Unit: "MB", Layer: "cluster/tcp", Moves: "peak_rss_mb"},

	{Name: "membudget.peak_xm", Unit: "xM", Layer: "membudget", Moves: "peak_rss_mb on every workload"},

	{Name: "io.source_read_s", Unit: "s", Layer: "process boundary", Moves: onBigInput},
	{Name: "io.sink_write_s", Unit: "s", Layer: "process boundary", Moves: onBigInput},
	{Name: "io.publish_s", Unit: "s", Layer: "process boundary", Moves: onBigInput},

	{Name: "trace.rank_wall_s", Unit: "s", Layer: "trace", Moves: "the traced run's slowest rank, tcp.New return to part file published"},
	{Name: "trace.overhead_pct", Unit: "%", Layer: "trace", Moves: "traced rank wall over the untraced median; target <= 10"},
	{Name: "trace.residue_pct", Unit: "%", Layer: "trace", Moves: "phase walls as the program accounts them (Result.PerPE) vs the bench's phase spans, worst rank, share of its wall; target <= 2"},
}

// replayMetrics come from the isolated per-layer replays.
var replayMetrics = []metricDef{
	{Name: "host.memmove_mb_s", Unit: "MB/s", Better: "higher", Layer: "host", Moves: "ceiling for elem and sortbench"},
	{Name: "host.file_write_mb_s", Unit: "MB/s", Better: "higher", Layer: "host", Moves: "ceiling for blockio writes"},
	{Name: "host.file_read_mb_s", Unit: "MB/s", Better: "higher", Layer: "host", Moves: "ceiling for blockio reads"},
	{Name: "host.loopback_mb_s", Unit: "MB/s", Better: "higher", Layer: "host", Moves: "ceiling for tcp.a2a_mb_s"},
	{Name: "host.loopback_rtt_us", Unit: "us", Layer: "host", Moves: "ceiling for tcp.sendrecv_rtt_us, tcp.barrier_us"},

	{Name: "elem.encode_mb_s", Unit: "MB/s", Better: "higher", Layer: "elem", Moves: "small share of every *_self_s"},
	{Name: "elem.decode_mb_s", Unit: "MB/s", Better: "higher", Layer: "elem", Moves: "small share of every *_self_s"},
	{Name: "elem.keys_melem_s", Unit: "Melem/s", Better: "higher", Layer: "elem", Moves: "psort's key extraction pass"},

	{Name: "psort.large_melem_s", Unit: "Melem/s", Better: "higher", Layer: "psort", Moves: "core.runform_self_s on canon_uniform"},
	{Name: "psort.small_melem_s", Unit: "Melem/s", Better: "higher", Layer: "psort", Moves: "core.runform_self_s on canon_smallblock (small share)"},
	{Name: "psort.large_w1_melem_s", Unit: "Melem/s", Better: "higher", Layer: "psort", Moves: "the single-thread baseline of psort.large_melem_s"},

	{Name: "xmerge.merge21_melem_s", Unit: "Melem/s", Better: "higher", Layer: "xmerge/pq", Moves: "core.merge_self_s, second half of core.runform_self_s on canon_uniform"},
	{Name: "xmerge.merge49_melem_s", Unit: "Melem/s", Better: "higher", Layer: "xmerge/pq", Moves: "core.merge_self_s on canon_smallblock"},

	{Name: "mselect.select21_us", Unit: "us", Layer: "mselect", Moves: "in-memory selection inside psort/run formation"},
	{Name: "mselect.select49_us", Unit: "us", Layer: "mselect", Moves: "in-memory selection inside psort/run formation"},
	{Name: "dselect.cuts_large_ms", Unit: "ms", Layer: "dselect", Moves: "the Cuts share of core.runform_s on canon_uniform"},
	{Name: "dselect.cuts_small_ms", Unit: "ms", Layer: "dselect", Moves: "the Cuts share of core.runform_s on canon_smallblock"},

	{Name: "blockio.file_write_mb_s", Unit: "MB/s", Better: "higher", Layer: "blockio", Moves: "blockio.write_s on the 100 MB workloads"},
	{Name: "blockio.file_read_mb_s", Unit: "MB/s", Better: "higher", Layer: "blockio", Moves: "blockio.read_s on the 100 MB workloads"},
	{Name: "blockio.file_small_write_mb_s", Unit: "MB/s", Better: "higher", Layer: "blockio", Moves: "blockio.write_s on canon_smallblock"},
	{Name: "blockio.file_small_read_mb_s", Unit: "MB/s", Better: "higher", Layer: "blockio", Moves: "blockio.read_s on canon_smallblock"},

	{Name: "tcp.a2a_mb_s", Unit: "MB/s", Better: "higher", Layer: "cluster/tcp", Moves: "tcp.a2a_s, tcp.stream_s"},
	{Name: "tcp.barrier_us", Unit: "us", Layer: "cluster/tcp", Moves: "tcp.collective_s on canon_smallblock"},
	{Name: "tcp.sendrecv_rtt_us", Unit: "us", Layer: "cluster/tcp", Moves: "tcp.p2p_s, core.selection_s on canon_smallblock"},

	{Name: "sortbench.gen_mb_s", Unit: "MB/s", Better: "higher", Layer: "sortbench", Moves: "setup_s"},
	{Name: "sortbench.valsort_mb_s", Unit: "MB/s", Better: "higher", Layer: "sortbench", Moves: "the launcher's validation share of cpu_s"},
}

func init() {
	for _, defs := range [][]metricDef{tracedMetrics, replayMetrics} {
		for i := range defs {
			if defs[i].Better == "" {
				defs[i].Better = "lower"
			}
		}
	}
}
