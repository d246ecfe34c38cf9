// Package report renders experiment data as TSV files and quick ASCII
// charts, used by cmd/benchfig to regenerate every figure of the paper
// in a form that
// can be eyeballed in a terminal and post-processed by plotting tools.
package report

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Series is one named curve: X positions with Y values.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a set of series with axis labels.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	LogY   bool
	Series []Series
}

// Add appends a point to the named series, creating it if necessary.
func (f *Figure) Add(series string, x, y float64) {
	for i := range f.Series {
		if f.Series[i].Name == series {
			f.Series[i].X = append(f.Series[i].X, x)
			f.Series[i].Y = append(f.Series[i].Y, y)
			return
		}
	}
	f.Series = append(f.Series, Series{Name: series, X: []float64{x}, Y: []float64{y}})
}

// WriteTSV emits the figure as a tab-separated table: one row per X,
// one column per series (the format plotting scripts consume).
func (f *Figure) WriteTSV(w io.Writer) error {
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			xs[x] = true
		}
	}
	var xList []float64
	for x := range xs {
		xList = append(xList, x)
	}
	sort.Float64s(xList)
	fmt.Fprintf(w, "# %s\n", f.Title)
	fmt.Fprintf(w, "%s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, "\t%s", s.Name)
	}
	fmt.Fprintln(w)
	for _, x := range xList {
		fmt.Fprintf(w, "%g", x)
		for _, s := range f.Series {
			v, ok := lookup(s, x)
			if ok {
				fmt.Fprintf(w, "\t%g", v)
			} else {
				fmt.Fprintf(w, "\t")
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// SaveTSV writes the figure under dir as <name>.tsv.
func (f *Figure) SaveTSV(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".tsv")
	file, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer file.Close()
	if err := f.WriteTSV(file); err != nil {
		return "", err
	}
	return path, nil
}

func lookup(s Series, x float64) (float64, bool) {
	for i, sx := range s.X {
		if sx == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// ASCII renders the figure as a crude terminal chart: one row per
// (x, series) with a proportional bar — enough to see the shape that
// the paper's plots show.
func (f *Figure) ASCII(w io.Writer, width int) {
	if width <= 0 {
		width = 50
	}
	maxY := math.Inf(-1)
	minY := math.Inf(1)
	for _, s := range f.Series {
		for _, y := range s.Y {
			maxY = math.Max(maxY, y)
			if y > 0 {
				minY = math.Min(minY, y)
			}
		}
	}
	if math.IsInf(maxY, -1) {
		fmt.Fprintf(w, "%s: (no data)\n", f.Title)
		return
	}
	fmt.Fprintf(w, "== %s ==\n", f.Title)
	fmt.Fprintf(w, "   y: %s%s\n", f.YLabel, map[bool]string{true: " (log scale)", false: ""}[f.LogY])
	nameW := 0
	for _, s := range f.Series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	for _, s := range f.Series {
		for i := range s.X {
			y := s.Y[i]
			var frac float64
			if f.LogY && y > 0 && maxY > minY {
				frac = (math.Log(y) - math.Log(minY)) / (math.Log(maxY) - math.Log(minY))
			} else if maxY > 0 {
				frac = y / maxY
			}
			if frac < 0 {
				frac = 0
			}
			bar := strings.Repeat("#", int(frac*float64(width)))
			fmt.Fprintf(w, "%*s %s=%-8g |%s %.4g\n", nameW, s.Name, f.XLabel, s.X[i], bar, y)
		}
	}
}

// Table is a simple aligned text table for the SortBenchmark-style
// comparisons.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends one row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Write renders the table with aligned columns.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, cell := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], cell)
		}
		fmt.Fprintln(w)
	}
	line(t.Headers)
	for i, wd := range widths {
		fmt.Fprintf(w, "%s  ", strings.Repeat("-", wd))
		_ = i
	}
	fmt.Fprintln(w)
	for _, row := range t.Rows {
		line(row)
	}
}

// SaveText writes the table under dir as <name>.txt.
func (t *Table) SaveText(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".txt")
	file, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer file.Close()
	t.Write(file)
	return path, nil
}
