package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// verdict of one end-to-end metric on one workload, b against a.
type verdict string

const (
	unchanged  verdict = "unchanged"  // within the bound either way
	improved   verdict = "improved"   // better by more than the bound
	worse      verdict = "WORSE"      // worse by more than the bound: a regression
	unresolved verdict = "unresolved" // run-to-run spread exceeds the bound: cannot tell
)

// judge compares b's median with a's. A metric whose raw samples spread
// (iqrShare) wider than its bound in either report cannot carry an
// "unchanged" or "improved" — it is unresolved; a median worse by more
// than the bound is a regression regardless.
func judge(a, b series) (verdict, float64) {
	if a.Median == 0 {
		return unresolved, 0
	}
	change := (b.Median - a.Median) / a.Median // > 0: b is larger
	if a.Better == "higher" {
		change = -change
	}
	// change > 0 now means b is worse.
	switch {
	case change > a.Bound:
		return worse, change
	case iqrShare(a.Samples) > a.Bound || iqrShare(b.Samples) > a.Bound:
		return unresolved, change
	case change < -a.Bound:
		return improved, change
	}
	return unchanged, change
}

func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareMain prints b against a and returns the process exit code:
// non-zero when an end-to-end metric of b is worse than a's by more
// than its bound, when b failed runs a did not, or when a count both
// reports mark exact differs.
func compareMain(pathA, pathB string, w io.Writer) int {
	a, errA := loadReport(pathA)
	b, errB := loadReport(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(w, "bench -compare:", err)
		return 2
	}
	return compareReports(a, b, w)
}

func compareReports(a, b *report, w io.Writer) int {
	bad := 0
	byName := map[string]*workloadReport{}
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			fmt.Fprintf(w, "%s: missing from the second report\n", wa.Name)
			bad++
			continue
		}
		fmt.Fprintf(w, "== %s\n", wa.Name)
		if wb.RunsFailed > wa.RunsFailed {
			fmt.Fprintf(w, "   runs_failed %d -> %d of %d: WORSE\n", wa.RunsFailed, wb.RunsFailed, wb.RunsAttempt)
			bad++
		}
		for _, def := range endToEnd {
			sa, sb := wa.EndToEnd[def.Name], wb.EndToEnd[def.Name]
			if sa.N == 0 || sb.N == 0 {
				continue
			}
			v, change := judge(sa, sb)
			fmt.Fprintf(w, "   %-14s %10.4f -> %10.4f %-3s %+6.1f%% (bound %.0f%%, spread %.1f%% / %.1f%%): %s\n",
				def.Name, sa.Median, sb.Median, sa.Unit, 100*change, 100*sa.Bound,
				100*iqrShare(sa.Samples), 100*iqrShare(sb.Samples), v)
			if v == worse {
				bad++
			}
		}
		for _, def := range tracedMetrics {
			la, okA := wa.Layers[def.Name]
			lb, okB := wb.Layers[def.Name]
			if !okA || !okB || la.Exact == nil || lb.Exact == nil || !*la.Exact || !*lb.Exact {
				continue
			}
			if la.Value != lb.Value {
				fmt.Fprintf(w, "   %-24s exact count differs: %v -> %v\n", def.Name, la.Value, lb.Value)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "FAIL: %d regression(s)\n", bad)
		return 1
	}
	fmt.Fprintln(w, "OK: no end-to-end metric worse than its bound, exact counts identical")
	return 0
}
