package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"demsort/internal/cluster"
	"demsort/internal/cluster/tcp"
	"demsort/internal/elem"
	"demsort/internal/sortbench"
)

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 10], n=4) = [2.25, 4.5, 6.75]
	if got := iqrShare([]float64{10, 1, 2, 3, 4, 5, 6, 7}); got != 1 {
		t.Errorf("iqrShare = %v, want (6.75-2.25)/4.5 = 1", got)
	}
	if got := iqrShare([]float64{5}); got != 0 {
		t.Errorf("iqrShare of one sample = %v, want 0", got)
	}
}

func TestJudge(t *testing.T) {
	def := metricDef{Unit: "s", Better: "lower", Bound: 0.10}
	tight := func(center float64) series {
		return newSeries(def, []float64{center * 0.99, center, center * 1.01})
	}
	wide := newSeries(def, []float64{0.8, 0.9, 1.0, 1.1, 1.2})
	for _, c := range []struct {
		name string
		a, b series
		want verdict
	}{
		{"same", tight(1), tight(1.05), unchanged},
		{"faster", tight(1), tight(0.8), improved},
		{"slower", tight(1), tight(1.2), worse},
		{"noisy and equal", wide, tight(1.0), unresolved},
		{"noisy but clearly slower", wide, tight(1.3), worse},
	} {
		if got, _ := judge(c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
	higher := metricDef{Unit: "1/s", Better: "higher", Bound: 0.10}
	a := newSeries(higher, []float64{100, 100, 100})
	b := newSeries(higher, []float64{80, 80, 80})
	if got, _ := judge(a, b); got != worse {
		t.Errorf("higher-is-better drop: judge = %s, want %s", got, worse)
	}
}

func TestCompareReports(t *testing.T) {
	yes := true
	mk := func(wall, ops float64) *report {
		return &report{Workloads: []*workloadReport{{
			Name:        "w",
			RunsAttempt: 3,
			EndToEnd:    map[string]series{"sort_wall_s": newSeries(endToEnd[0], []float64{wall, wall, wall})},
			Layers:      map[string]layerValue{"blockio.read_ops": {Value: ops, Unit: "count", Exact: &yes}},
		}}}
	}
	var out bytes.Buffer
	if code := compareReports(mk(1, 100), mk(1.02, 100), &out); code != 0 {
		t.Errorf("equal reports: exit %d\n%s", code, out.String())
	}
	if code := compareReports(mk(1, 100), mk(1.5, 100), &out); code == 0 {
		t.Error("50% slower wall passed")
	}
	if code := compareReports(mk(1, 100), mk(1, 101), &out); code == 0 {
		t.Error("differing exact count passed")
	}
	failed := mk(1, 100)
	failed.Workloads[0].RunsFailed = 1
	if code := compareReports(mk(1, 100), failed, &out); code == 0 {
		t.Error("new failed run passed")
	}
}

// writeRecords writes recs as raw 100-byte records.
func writeRecords(t *testing.T, path string, recs []elem.Rec100) {
	t.Helper()
	var buf bytes.Buffer
	for i := range recs {
		buf.Write(recs[i][:])
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSortTiles(t *testing.T) {
	const nPer, p = 500, 4
	recs := sortbench.Generate(7, 0, nPer*p)
	path := filepath.Join(t.TempDir(), "in")
	writeRecords(t, path, recs)
	before, err := summarizeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := sortTiles(f, nPer, p); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var all sortbench.Accum
	for r := 0; r < p; r++ {
		tile := raw[r*nPer*recBytes : (r+1)*nPer*recBytes]
		var a sortbench.Accum
		a.Add(tile)
		if s := a.Summary(); s.Unsorted != 0 || s.Records != nPer {
			t.Errorf("tile %d: %d records, %d order violations", r, s.Records, s.Unsorted)
		}
		all.Add(tile)
	}
	after := all.Summary()
	if after.Records != before.Records || after.Checksum != before.Checksum {
		t.Errorf("tile sort changed the multiset: %d/%016x -> %d/%016x",
			before.Records, before.Checksum, after.Records, after.Checksum)
	}
	if after.Unsorted == 0 {
		t.Error("whole file is sorted: tiles were not sorted independently")
	}
}

func TestCheckOutput(t *testing.T) {
	const n, p = 400, 4
	recs := sortbench.Generate(3, 0, n)
	want := sortbench.Validate(recs)
	slices.SortFunc(recs, func(a, b elem.Rec100) int { return bytes.Compare(a[:10], b[:10]) })
	write := func(recs []elem.Rec100) string {
		dir := t.TempDir()
		for r := 0; r < p; r++ {
			writeRecords(t, filepath.Join(dir, fmt.Sprintf("part-%03d", r)), recs[r*len(recs)/p:(r+1)*len(recs)/p])
		}
		return dir
	}
	if err := checkOutput(write(recs), p, want); err != nil {
		t.Errorf("correct output rejected: %v", err)
	}
	swapped := slices.Clone(recs)
	swapped[10], swapped[11] = swapped[11], swapped[10]
	if err := checkOutput(write(swapped), p, want); err == nil || !strings.Contains(err.Error(), "order") {
		t.Errorf("swapped pair: %v", err)
	}
	// A swap across a part boundary is only visible to the merged check.
	cross := slices.Clone(recs)
	cross[n/p-1], cross[n/p] = cross[n/p], cross[n/p-1]
	if err := checkOutput(write(cross), p, want); err == nil {
		t.Error("pair swapped across a part boundary accepted")
	}
	if err := checkOutput(write(recs[1:]), p, want); err == nil || !strings.Contains(err.Error(), "records") {
		t.Errorf("dropped record: %v", err)
	}
	dup := slices.Clone(recs)
	dup[5] = dup[4]
	if err := checkOutput(write(dup), p, want); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("duplicated record: %v", err)
	}
}

// TestDecoratorKeepsStreaming pins the trap the decorator must avoid: a
// Transport wrapper that loses OpenA2AStream silently moves the
// exchange onto the synchronous adapter, and one that loses
// MailboxPeakBytes reports an empty mailbox.
func TestDecoratorKeepsStreaming(t *testing.T) {
	tm, err := tcp.New(tcp.Config{Rank: 0, Peers: []string{"127.0.0.1:0"}, BlockBytes: 1024, MemElems: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	tr := newTracer()
	m := &timingMachine{Machine: tm, tr: tr}
	err = m.Run(func(n *cluster.Node) error {
		if _, ok := n.Transport().(cluster.StreamingTransport); !ok {
			t.Error("wrapped transport lost cluster.StreamingTransport")
		}
		if _, ok := n.Transport().(cluster.MailboxStats); !ok {
			t.Error("wrapped transport lost cluster.MailboxStats")
		}
		n.SetPhase("all-to-all")
		st := n.OpenA2AStream(2)
		if _, ok := st.(*timingStream); !ok {
			t.Errorf("OpenA2AStream returned %T, want the timed backend stream", st)
		}
		st.Post([][]byte{[]byte("self")})
		cluster.RecycleRecv(st.Collect())
		st.Close()
		n.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := foldRank(tr.spans)
	if tot.kindN[kindStreamPost] != 1 || tot.kindN[kindStreamCollect] != 1 || tot.kindN[kindBarrier] != 1 {
		t.Errorf("spans: %d Post, %d Collect, %d Barrier, want 1 each",
			tot.kindN[kindStreamPost], tot.kindN[kindStreamCollect], tot.kindN[kindBarrier])
	}
	if tot.phaseWall["all-to-all"] <= 0 {
		t.Error("no phase span for the phase set through the wrapped node")
	}
	if self := tot.phaseSelf["all-to-all"]; self < 0 || self > tot.phaseWall["all-to-all"] {
		t.Errorf("self time %v outside [0, wall %v]", self, tot.phaseWall["all-to-all"])
	}
}

func TestCoveredNanos(t *testing.T) {
	spans := []span{
		{Start: 10, Dur: 10}, // [10,20)
		{Start: 15, Dur: 10}, // overlaps: adds [20,25)
		{Start: 40, Dur: 30}, // clipped at 50: adds [40,50)
		{Start: 0, Dur: 5},   // before the window
	}
	if got := coveredNanos(spans, 8, 50); got != 25 {
		t.Errorf("coveredNanos = %d, want 25", got)
	}
}

// TestBenchmarkJSONInStep keeps BENCHMARK.json and the registry the
// bench prints from naming the same workloads and metrics.
func TestBenchmarkJSONInStep(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the bench", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q", i, doc.Workloads[i].Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the bench", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %s: BENCHMARK.json has %+v", d.Name, got)
		}
	}
	layer := append(slices.Clone(tracedMetrics), replayMetrics...)
	if len(doc.PerLayer) != len(layer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the bench", len(doc.PerLayer), len(layer))
	}
	for i, d := range layer {
		got := doc.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %s: BENCHMARK.json has %+v", d.Name, got)
		}
	}
}
