package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"time"

	"demsort/internal/sortbench"
)

// fleetP is the fleet size of every workload: the smallest P with a
// multi-round 1-factor all-to-all and depth-2 tree collectives. With
// more processes than this sandbox's two cores, wall-clock scaling in P
// would measure the scheduler, so it is not a workload dimension.
const fleetP = 4

const recBytes = 100

// workload is one named input + command shape. Sizes are a quarter of
// the GraySort-shaped ones the issue sketched (see README "Regime"):
// the driver's budget is ~35 s per invocation including set-up, and a
// median needs several repetitions inside it.
type workload struct {
	Name string
	Why  string
	// Records is N, the total input size; NPer = N/P.
	Records int64
	NPer    int64
	Mem     int64 // -mem, elements per PE
	Block   int   // -block, bytes
	Striped bool
	// Randomize is -randomize; PresortTiles sorts each rank's input
	// tile during set-up (the "merging sorted shards" input).
	Randomize    bool
	PresortTiles bool
}

var workloads = []workload{
	{
		Name:      "canon_uniform",
		Why:       "Headline shape: uniform keys, 21 runs/PE, data = 5x memory; run formation and bulk I/O dominate, selection and the external all-to-all are near zero.",
		Records:   1_000_000,
		NPer:      250_000,
		Mem:       50_000,
		Block:     16384,
		Randomize: true,
	},
	{
		Name:         "canon_shards_norand",
		Why:          "Each rank's tile pre-sorted, randomization off: runs cover narrow key bands, so most data crosses the wire again in the external all-to-all; exchange work shows only here.",
		Records:      1_000_000,
		NPer:         250_000,
		Mem:          50_000,
		Block:        16384,
		PresortTiles: true,
	},
	{
		Name:      "canon_smallblock",
		Why:       "Tiny blocks and memory: 49 runs/PE and thousands of selection probes, so multiway selection and per-op latency dominate while bulk bandwidth does little.",
		Records:   200_000,
		NPer:      50_000,
		Mem:       4096,
		Block:     400,
		Randomize: true,
	},
	{
		Name:      "striped_uniform",
		Why:       "The globally striped sorter on the first half of canon_uniform's stream, same data/memory ratio: guards the second algorithm against core/blockio/tcp changes.",
		Records:   500_000,
		NPer:      125_000,
		Mem:       25_000,
		Block:     16384,
		Striped:   true,
		Randomize: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) inputBytes() int64 { return w.Records * recBytes }

// sortArgs are the flags the launcher and the traced worker share.
func (w workload) sortArgs(infile, outdir string) []string {
	args := []string{
		"-infile", infile, "-outdir", outdir,
		"-n", fmt.Sprint(w.NPer), "-mem", fmt.Sprint(w.Mem), "-block", fmt.Sprint(w.Block),
		fmt.Sprintf("-randomize=%v", w.Randomize),
	}
	if w.Striped {
		args = append(args, "-striped")
	}
	return args
}

func (w workload) launcherArgs(infile, outdir string) []string {
	return append([]string{"-transport=tcp", "-p", fmt.Sprint(fleetP), "-store=file"}, w.sortArgs(infile, outdir)...)
}

// prepareInput writes the workload's input to path with cmd/gensort
// (plus the tile sort) and fsyncs it; the returned duration is one
// setup_s sample.
func prepareInput(gensort string, w workload, seed uint64, path string) (time.Duration, error) {
	start := time.Now()
	cmd := exec.Command(gensort, "-seed", fmt.Sprint(seed), fmt.Sprint(w.Records), path)
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("gensort: %v: %s", err, out)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if w.PresortTiles {
		if err := sortTiles(f, w.NPer, fleetP); err != nil {
			return 0, err
		}
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// sortTiles sorts each of the p consecutive nPer-record tiles of f in
// place by the 10-byte key. It deliberately uses the standard library,
// not the program's sorter: set-up must not depend on what it feeds.
func sortTiles(f *os.File, nPer int64, p int) error {
	tile := make([][recBytes]byte, nPer)
	raw := make([]byte, nPer*recBytes)
	for r := 0; r < p; r++ {
		off := int64(r) * nPer * recBytes
		if _, err := f.ReadAt(raw, off); err != nil {
			return err
		}
		for i := range tile {
			copy(tile[i][:], raw[i*recBytes:])
		}
		slices.SortFunc(tile, func(a, b [recBytes]byte) int { return bytes.Compare(a[:10], b[:10]) })
		for i := range tile {
			copy(raw[i*recBytes:], tile[i][:])
		}
		if _, err := f.WriteAt(raw, off); err != nil {
			return err
		}
	}
	return nil
}

// summarizeFile valsorts one file of raw records.
func summarizeFile(path string) (sortbench.Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return sortbench.Summary{}, err
	}
	defer f.Close()
	return sortbench.SummarizeReader(bufio.NewReaderSize(f, 1<<20))
}
