package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

// series is one end-to-end metric of one workload: the median the
// bounds apply to, with every repetition's raw sample. n is too small
// for a percentile beyond the median, hence min and max.
type series struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func newSeries(def metricDef, samples []float64) series {
	s := series{Unit: def.Unit, Better: def.Better, Bound: def.Bound,
		Median: median(samples), N: len(samples), Samples: samples}
	if len(samples) > 0 {
		s.Min, s.Max = slices.Min(samples), slices.Max(samples)
	}
	return s
}

// layerValue is one per-layer metric: the median over the traced
// repetitions (or the replay's own median). Exact is set on counts
// that are expected to repeat exactly, and says whether they did.
type layerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Exact *bool   `json:"exact,omitempty"`
	Moves string  `json:"should_move,omitempty"`
}

type workloadReport struct {
	Name         string                `json:"name"`
	Why          string                `json:"why"`
	Command      string                `json:"command"`
	InputBytes   int64                 `json:"input_bytes"`
	MBPerS       float64               `json:"sort_mb_s"`
	EndToEnd     map[string]series     `json:"end_to_end"`
	RunsAttempt  int                   `json:"runs_attempted"`
	RunsFailed   int                   `json:"runs_failed"`
	Failures     []string              `json:"failures,omitempty"`
	TracedReps   int                   `json:"traced_reps"`
	Layers       map[string]layerValue `json:"per_layer,omitempty"`
	ChromeTrace  string                `json:"chrome_trace,omitempty"`
	MeasureWallS float64               `json:"measure_wall_s"`
}

type hostInfo struct {
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
	Kernel    string `json:"kernel"`
	DataDir   string `json:"data_dir"`
	DataDirFS string `json:"data_dir_fs"`
}

type regimeInfo struct {
	Records   string `json:"records"`
	P         int    `json:"p"`
	Transport string `json:"transport"`
	Cache     string `json:"cache"`
	Seed      uint64 `json:"seed"`
	Seconds   int    `json:"seconds"`
}

type report struct {
	Host       hostInfo              `json:"host"`
	Regime     regimeInfo            `json:"regime"`
	Workloads  []*workloadReport     `json:"workloads"`
	Replay     map[string]layerValue `json:"replay,omitempty"`
	Ceilings   []ratio               `json:"ceilings,omitempty"`
	TotalWallS float64               `json:"total_wall_s"`
}

func hostOf(dataDir string) hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), DataDir: dataDir, DataDirFS: fsType(dataDir)}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		h.Kernel = b.String()
	}
	return h
}

// fsType names the filesystem under dir: numbers measured on tmpfs or
// a warm page cache are the sandbox's, not a device's.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printTable is the human view: every metric by name with its unit.
func (r *report) printTable(w io.Writer) {
	fmt.Fprintf(w, "host: %d cpu, %s, linux %s; data dir %s (%s)\n",
		r.Host.NumCPU, r.Host.GoVersion, r.Host.Kernel, r.Host.DataDir, r.Host.DataDirFS)
	fmt.Fprintf(w, "regime: %s, P=%d, %s, %s, seed %d, %d s per pass\n",
		r.Regime.Records, r.Regime.P, r.Regime.Transport, r.Regime.Cache, r.Regime.Seed, r.Regime.Seconds)
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "\n== %s  (%s)\n   %s\n", wl.Name, wl.Why, wl.Command)
		fmt.Fprintf(w, "   runs_attempted %d count   runs_failed %d count   traced_reps %d count   (medians; n is too small for a higher percentile)\n", wl.RunsAttempt, wl.RunsFailed, wl.TracedReps)
		for _, f := range wl.Failures {
			fmt.Fprintf(w, "   FAILED: %s\n", f)
		}
		for _, def := range endToEnd {
			s, ok := wl.EndToEnd[def.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "   %-28s %10.4f %-7s median (min %.4f max %.4f n=%d)", def.Name, s.Median, s.Unit, s.Min, s.Max, s.N)
			if def.Name == "sort_wall_s" {
				fmt.Fprintf(w, "  = %.1f MB/s", wl.MBPerS)
			}
			fmt.Fprintln(w)
		}
		printLayers(w, tracedMetrics, wl.Layers)
	}
	if len(r.Replay) > 0 {
		fmt.Fprintf(w, "\n== per-layer replays (median of >= %d iterations)\n", replayIters)
		printLayers(w, replayMetrics, r.Replay)
		fmt.Fprintf(w, "\n== achieved / ceiling\n")
		for _, c := range r.Ceilings {
			fmt.Fprintf(w, "   %-30s vs %-24s %6.3f\n", c.Metric, c.Ceiling, c.Achieved)
		}
	}
	fmt.Fprintf(w, "\ntotal wall %.1f s\n", r.TotalWallS)
}

func printLayers(w io.Writer, defs []metricDef, vals map[string]layerValue) {
	for _, def := range defs {
		v, ok := vals[def.Name]
		if !ok {
			continue
		}
		note := ""
		if v.Exact != nil && !*v.Exact {
			note = "  (not exact: varied between repetitions)"
		}
		fmt.Fprintf(w, "   %-28s %12.4f %-8s%s\n", def.Name, v.Value, v.Unit, note)
	}
}

// driverLine is the last line of stdout in driver mode.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
