// Command benchfig regenerates every figure and table of the paper's
// evaluation on the simulated cluster, writing TSV/TXT artefacts under
// -out and printing ASCII previews. The times in them are modelled —
// they reproduce the paper's shapes, not this host's performance; the
// host-measured benchmark is bench/ (see bench/README.md).
//
// Usage:
//
//	benchfig [-out out] [-fig all|2|3|4|5|6|sortbench|capacity|ablations|skew]
//
// -fig also accepts a comma-separated selection (e.g. -fig 2,5).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	demsort "demsort"
)

func main() {
	outDir := flag.String("out", "out", "directory for TSV/TXT artefacts")
	fig := flag.String("fig", "all", "which figure/table to regenerate")
	flag.Parse()

	s := demsort.DefaultScale()
	ok := true
	selected := map[string]bool{}
	for _, name := range strings.Split(*fig, ",") {
		selected[strings.TrimSpace(name)] = true
	}
	run := func(name string, f func() error) {
		if !selected["all"] && !selected[name] {
			return
		}
		fmt.Printf("--- %s ---\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			ok = false
		}
	}

	saveFig := func(name string, fn func(demsort.FigureScale) (*demsort.Figure, error)) func() error {
		return func() error {
			f, err := fn(s)
			if err != nil {
				return err
			}
			f.ASCII(os.Stdout, 50)
			path, err := f.SaveTSV(*outDir, name)
			if err != nil {
				return err
			}
			fmt.Println("wrote", path)
			return nil
		}
	}
	saveTable := func(name string, fn func() (*demsort.Table, error)) func() error {
		return func() error {
			t, err := fn()
			if err != nil {
				return err
			}
			t.Write(os.Stdout)
			path, err := t.SaveText(*outDir, name)
			if err != nil {
				return err
			}
			fmt.Println("wrote", path)
			return nil
		}
	}

	run("2", saveFig("fig2", demsort.Fig2))
	run("3", saveFig("fig3", demsort.Fig3))
	run("4", saveFig("fig4", demsort.Fig4))
	run("5", saveFig("fig5", demsort.Fig5))
	run("6", saveFig("fig6", demsort.Fig6))
	run("sortbench", saveTable("sortbench", func() (*demsort.Table, error) { return demsort.SortBenchTable(s) }))
	run("capacity", saveTable("capacity", func() (*demsort.Table, error) { return demsort.CapacityTable(), nil }))
	run("skew", saveTable("skew", func() (*demsort.Table, error) { return demsort.BaselineSkewTable(s) }))
	run("ablations", func() error {
		type abl struct {
			name string
			fn   func() error
		}
		abls := []abl{
			{"ablation_blocksize", saveFig("ablation_blocksize", demsort.AblationBlockSize)},
			{"ablation_overlap", saveFig("ablation_overlap", demsort.AblationOverlap)},
			{"ablation_samplek", saveFig("ablation_samplek", demsort.AblationSampleK)},
			{"ablation_striped", saveTable("ablation_striped", func() (*demsort.Table, error) { return demsort.AblationStripedVsCanonical(s) })},
			{"ablation_prefetch", saveFig("ablation_prefetch", func(demsort.FigureScale) (*demsort.Figure, error) { return demsort.AblationPrefetch() })},
		}
		for _, a := range abls {
			fmt.Printf("--- %s ---\n", a.name)
			if err := a.fn(); err != nil {
				return err
			}
		}
		return nil
	})

	if !ok {
		os.Exit(1)
	}
}
