package demsort_test

import (
	"strings"
	"testing"

	demsort "demsort"
	"demsort/internal/workload"
)

// smallScale keeps the public-API figure tests fast.
func smallScale() demsort.FigureScale {
	s := demsort.DefaultScale()
	s.PSweep = []int{1, 2, 4}
	s.Fig3P = 4
	return s
}

func TestPublicSortRoundTrip(t *testing.T) {
	opts := demsort.NewOptions(4, 1<<13, 1024)
	opts.KeepOutput = true
	input := workload.Generate(workload.Uniform, 4, 6000, 1)
	res, err := demsort.Sort[demsort.KV16](demsort.KV16Codec{}, opts, input)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(demsort.KV16Codec{}, input); err != nil {
		t.Fatal(err)
	}
	if res.TotalWall() <= 0 {
		t.Fatal("no modelled time")
	}
}

func TestPublicSortStripedRoundTrip(t *testing.T) {
	opts := demsort.NewStripedOptions(4, 1<<13, 1024)
	opts.KeepOutput = true
	input := workload.Generate(workload.Uniform, 4, 6000, 2)
	res, err := demsort.SortStriped[demsort.KV16](demsort.KV16Codec{}, opts, input)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 4*6000 {
		t.Fatalf("N=%d", res.N)
	}
}

func TestPhasesListed(t *testing.T) {
	ph := demsort.Phases()
	if len(ph) != 4 || ph[0] != demsort.PhaseRunForm || ph[3] != demsort.PhaseMerge {
		t.Fatalf("phases: %v", ph)
	}
}

func TestFiguresProduceData(t *testing.T) {
	s := smallScale()
	type figFn struct {
		name string
		fn   func() (*demsort.Figure, error)
	}
	figs := []figFn{
		{"fig2", func() (*demsort.Figure, error) { return demsort.Fig2(s) }},
		{"fig3", func() (*demsort.Figure, error) { return demsort.Fig3(s) }},
		{"fig4", func() (*demsort.Figure, error) { return demsort.Fig4(s) }},
		{"fig5", func() (*demsort.Figure, error) { return demsort.Fig5(s) }},
		{"fig6", func() (*demsort.Figure, error) { return demsort.Fig6(s) }},
	}
	for _, fig := range figs {
		f, err := fig.fn()
		if err != nil {
			t.Fatalf("%s: %v", fig.name, err)
		}
		if len(f.Series) == 0 {
			t.Fatalf("%s: no series", fig.name)
		}
		var sb strings.Builder
		if err := f.WriteTSV(&sb); err != nil {
			t.Fatalf("%s: %v", fig.name, err)
		}
		if !strings.Contains(sb.String(), "\t") {
			t.Fatalf("%s: empty TSV", fig.name)
		}
	}
}

// TestFig3IsReproducible: the figures are modelled, so one binary must
// render one figure — byte for byte. Fig. 3 is the sensitive one: it
// plots each PE's I/O seconds, a float sum over every transfer the PE
// issued, so any step that issues its transfers in a run-dependent order
// (a map walk) moves the last ULP.
func TestFig3IsReproducible(t *testing.T) {
	render := func() string {
		f, err := demsort.Fig3(demsort.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := f.WriteTSV(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	first := render()
	for i := 1; i < 5; i++ {
		if again := render(); again != first {
			t.Fatalf("rendering %d of fig3.tsv differs from the first:\n%s\nvs\n%s", i+1, again, first)
		}
	}
}

func TestFig5ShapeMatchesPaper(t *testing.T) {
	// The qualitative claims of Figure 5 at P=4: non-randomized worst
	// case exchanges (nearly) everything; randomization cuts it by a
	// large factor; smaller blocks cut it further; random input is
	// cheapest.
	s := smallScale()
	f, err := demsort.Fig5(s)
	if err != nil {
		t.Fatal(err)
	}
	at := func(series string) float64 {
		for _, sr := range f.Series {
			if strings.Contains(sr.Name, series) {
				for i, x := range sr.X {
					if x == 4 {
						return sr.Y[i]
					}
				}
			}
		}
		t.Fatalf("series %q not found", series)
		return 0
	}
	worst := at("non-randomized")
	randBig := at("randomized, B=1024")
	randSmall := at("randomized, B=256")
	random := at("random input")
	if !(worst > randBig && randBig > randSmall && randSmall >= random*0.5) {
		t.Errorf("fig5 ordering violated: worst=%.3f randB=%.3f randSmallB=%.3f random=%.3f",
			worst, randBig, randSmall, random)
	}
	if worst < 1 {
		t.Errorf("non-randomized worst case ratio %.3f, expected ~2", worst)
	}
}

func TestFig6ShowsWorstCasePenalty(t *testing.T) {
	// Figure 6 vs Figure 2: the non-randomized worst case costs extra
	// all-to-all time ("a penalty of up to 50% in running time").
	s := smallScale()
	f2, err := demsort.Fig2(s)
	if err != nil {
		t.Fatal(err)
	}
	f6, err := demsort.Fig6(s)
	if err != nil {
		t.Fatal(err)
	}
	total := func(f *demsort.Figure, p float64) float64 {
		for _, sr := range f.Series {
			if sr.Name == "total" {
				for i, x := range sr.X {
					if x == p {
						return sr.Y[i]
					}
				}
			}
		}
		t.Fatal("total series missing")
		return 0
	}
	if !(total(f6, 4) > 1.1*total(f2, 4)) {
		t.Errorf("worst case without randomization not slower: %.5f vs %.5f", total(f6, 4), total(f2, 4))
	}
}

func TestSortBenchAndCapacityTables(t *testing.T) {
	tbl, err := demsort.SortBenchTable(smallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 4 {
		t.Fatalf("sortbench rows: %d", len(tbl.Rows))
	}
	cap := demsort.CapacityTable()
	if len(cap.Rows) == 0 {
		t.Fatal("capacity table empty")
	}
	var sb strings.Builder
	cap.Write(&sb)
	if !strings.Contains(sb.String(), "GiB") && !strings.Contains(sb.String(), "TiB") {
		t.Fatalf("capacity table lacks sizes: %s", sb.String())
	}
}

func TestBaselineSkewTable(t *testing.T) {
	tbl, err := demsort.BaselineSkewTable(smallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
}

func TestAblations(t *testing.T) {
	s := smallScale()
	if _, err := demsort.AblationBlockSize(s); err != nil {
		t.Fatal(err)
	}
	if _, err := demsort.AblationOverlap(s); err != nil {
		t.Fatal(err)
	}
	if _, err := demsort.AblationSampleK(s); err != nil {
		t.Fatal(err)
	}
	if _, err := demsort.AblationStripedVsCanonical(s); err != nil {
		t.Fatal(err)
	}
	if _, err := demsort.AblationPrefetch(); err != nil {
		t.Fatal(err)
	}
}

// TestOverlapHidesRunFormationReads: §IV-E's overlap hides run
// formation's input reads — run r+1's are issued before run r is sorted
// and sent — so at P = 4 the overlapped sort takes at most 0.9 of the
// synchronous one's modelled time. At this scale it reads 0.83; a run
// formation that issues run r+1's reads only after run r is sent reads
// 0.97, with nearly all of its overlap gone.
func TestOverlapHidesRunFormationReads(t *testing.T) {
	f, err := demsort.AblationOverlap(smallScale())
	if err != nil {
		t.Fatal(err)
	}
	at := func(series string) float64 {
		for _, sr := range f.Series {
			if sr.Name == series {
				for i, x := range sr.X {
					if x == 4 {
						return sr.Y[i]
					}
				}
			}
		}
		t.Fatalf("no %q point at P = 4", series)
		return 0
	}
	on, off := at("overlap on"), at("overlap off")
	if on > 0.9*off {
		t.Errorf("P = 4: overlap on %.6f s, off %.6f s (%.3f), want at most 0.9", on, off, on/off)
	}
}
