package main

// The traced worker: one rank of a bench-hosted fleet. It does what
// cmd/demsort's tcp worker does — tcp.New, demsort.Sort/SortStriped on
// that machine with Source = a section of the input file and Sink = a
// part file published by flush+fsync+rename — with the timing
// decorators of trace.go between the program and its seams.

import (
	"bufio"
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	demsort "demsort"
	"demsort/internal/blockio"
	"demsort/internal/cluster/tcp"
	"demsort/internal/elem"
	"demsort/internal/vtime"
)

// exitListenRace mirrors cmd/demsort: the reserved port was taken
// before this rank bound it, the parent retries on fresh ports.
const exitListenRace = 3

// rankTrace is what one traced worker hands back to the parent.
type rankTrace struct {
	Rank        int
	Spans       []span
	N           int64 // fleet-wide record count
	Runs        int
	SubOps      int // canonical: external all-to-all sub-operations
	PeakMem     int64
	PeakDisk    int64
	MailboxPeak int64
	BytesSent   int64 // PhaseStats.BytesSent summed over phases
	Messages    int64
	// PhaseWall is the program's own per-phase wall (Result.PerPE),
	// kept to cross-check the bench's phase spans.
	PhaseWall map[string]float64
}

func workerMain(args []string) {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	rank := fs.Int("rank", 0, "")
	peers := fs.String("peers", "", "")
	infile := fs.String("infile", "", "")
	outdir := fs.String("outdir", "", "")
	nPer := fs.Int64("n", 0, "")
	mem := fs.Int64("mem", 0, "")
	block := fs.Int("block", 0, "")
	striped := fs.Bool("striped", false, "")
	randomize := fs.Bool("randomize", true, "")
	fs.Parse(args)
	w := workload{NPer: *nPer, Mem: *mem, Block: *block, Striped: *striped, Randomize: *randomize}
	if err := runWorker(*rank, strings.Split(*peers, ","), w, *infile, *outdir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, tcp.ErrBind) {
			os.Exit(exitListenRace)
		}
		os.Exit(1)
	}
}

func runWorker(rank int, peers []string, w workload, infile, outdir string) error {
	tr := newTracer()
	newStore := blockio.FileStoreFactory(filepath.Join(outdir, "work"), w.Block)
	bringup := time.Now()
	tm, err := tcp.New(tcp.Config{
		Rank:       rank,
		Peers:      peers,
		BlockBytes: w.Block,
		MemElems:   w.Mem,
		NewStore: func(rank int) (blockio.Store, error) {
			s, err := newStore(rank)
			if err != nil {
				return nil, err
			}
			return &timingStore{inner: s, tr: tr}, nil
		},
		JobID: "demsort-bench",
	})
	if err != nil {
		return err
	}
	defer tm.Close()
	tr.add(kindBringup, bringup, 0)
	m := &timingMachine{Machine: tm, tr: tr}

	in, err := os.Open(infile)
	if err != nil {
		return err
	}
	defer in.Close()
	source := func(rank int) (io.Reader, int64, error) {
		sec := io.NewSectionReader(in, int64(rank)*w.NPer*100, w.NPer*100)
		return &timingReader{r: sec, tr: tr}, w.NPer, nil
	}
	partPath := filepath.Join(outdir, fmt.Sprintf("part-%03d", rank))
	part, err := os.Create(partPath + ".tmp")
	if err != nil {
		return err
	}
	defer part.Close() // error paths; publish checks the real Close
	pw := bufio.NewWriterSize(part, 1<<20)
	sink := timingSink(tr, func(b []byte) error {
		_, err := pw.Write(b)
		return err
	})

	out := rankTrace{Rank: rank}
	start := time.Now()
	var perPE map[string]*vtime.PhaseStats
	p := len(peers)
	if w.Striped {
		opts := demsort.NewStripedOptions(p, w.Mem, w.Block)
		opts.Model = demsort.ScaledModel(w.Block)
		opts.Randomize = w.Randomize
		opts.Machine, opts.Source, opts.Sink = m, source, sink
		res, err := demsort.SortStriped[elem.Rec100](demsort.Rec100Codec{}, opts, nil)
		if err != nil {
			return err
		}
		perPE = res.PerPE[rank]
		out.N, out.Runs, out.PeakMem = res.N, res.Runs, res.PeakMemElems[rank]
	} else {
		opts := demsort.NewOptions(p, w.Mem, w.Block)
		opts.Model = demsort.ScaledModel(w.Block)
		opts.Randomize = w.Randomize
		opts.Machine, opts.Source, opts.Sink = m, source, sink
		res, err := demsort.Sort[elem.Rec100](demsort.Rec100Codec{}, opts, nil)
		if err != nil {
			return err
		}
		perPE = res.PerPE[rank]
		out.N, out.Runs, out.SubOps, out.PeakMem = res.N, res.Runs, res.SubOps, res.PeakMemElems[rank]
	}

	publish := time.Now()
	if err := pw.Flush(); err != nil {
		return err
	}
	if err := part.Sync(); err != nil {
		return err
	}
	if err := part.Close(); err != nil {
		return err
	}
	if err := os.Rename(partPath+".tmp", partPath); err != nil {
		return err
	}
	if err := blockio.SyncDir(outdir); err != nil {
		return err
	}
	tr.add(kindPublish, publish, 0)
	tr.add(kindRank, start, 0)

	node := tm.Nodes()[0]
	out.PeakDisk = node.Vol.PeakUsed()
	out.MailboxPeak = node.MailboxPeakBytes()
	out.PhaseWall = map[string]float64{}
	for ph, st := range perPE {
		out.BytesSent += st.BytesSent
		out.Messages += st.Messages
		out.PhaseWall[ph] = st.Wall
	}
	out.Spans = tr.spans

	f, err := os.Create(spanFile(outdir, rank))
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(&out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func spanFile(outdir string, rank int) string {
	return filepath.Join(outdir, fmt.Sprintf("spans-%03d.gob", rank))
}
