// Command gensort writes SortBenchmark-style 100-byte records to a
// file, like the benchmark's gensort tool ("This setting considers
// 100-byte elements with a 10-byte key").
//
// Usage:
//
//	gensort [-seed 1] [-start 0] [-skew 0] <count> <file>
//
// The records are sortbench.Generate(seed, start, count), or
// sortbench.Skewed with -skew. -start must be at least 0 and -skew
// between 0 and 10, and start+count may not overflow an int64; any
// other value is a usage error (exit 2), refused before the file is
// created. The file is written in chunks of 16 384 records, each
// generated by GOMAXPROCS goroutines over contiguous index ranges; the
// bytes are the same at any GOMAXPROCS.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"

	"demsort/internal/elem"
	"demsort/internal/sortbench"
)

func main() {
	seed := flag.Uint64("seed", 1, "generator seed")
	start := flag.Int64("start", 0, "first record index (for tiled generation, ≥ 0)")
	skew := flag.Int("skew", 0, "records out of 10 sharing a hot key prefix (0-10)")
	flag.Parse()
	usage := func(msg string) {
		if msg != "" {
			fmt.Fprintln(os.Stderr, "gensort:", msg)
		}
		fmt.Fprintln(os.Stderr, "usage: gensort [-seed S] [-start I] [-skew K] <count> <file>")
		os.Exit(2)
	}
	if flag.NArg() != 2 {
		usage("")
	}
	count, err := strconv.ParseInt(flag.Arg(0), 10, 64)
	switch {
	case err != nil || count < 0:
		usage("bad count")
	case *start < 0:
		usage(fmt.Sprintf("-start %d is negative", *start))
	case count > math.MaxInt64-*start:
		usage(fmt.Sprintf("-start %d plus count %d overflows the record index", *start, count))
	case *skew < 0 || *skew > 10:
		usage(fmt.Sprintf("-skew %d is outside 0-10", *skew))
	}
	f, err := os.Create(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := write(f, *seed, *start, count, *skew, runtime.GOMAXPROCS(0)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d records (%d bytes) to %s\n", count, count*100, flag.Arg(1))
}

// chunk is the number of records generated between two writes.
const chunk = 16384

// write writes records [start, start+count) of seed's sequence (skewed
// when skew > 0) to w, one chunk at a time. Each chunk is split into
// contiguous ranges that workers goroutines generate straight into one
// reused buffer, so the bytes do not depend on workers.
func write(w io.Writer, seed uint64, start, count int64, skew, workers int) error {
	gen := sortbench.NewReader(seed, start, count)
	buf := make([]byte, min(count, chunk)*100)
	var wg sync.WaitGroup
	for off := int64(0); off < count; off += chunk {
		b := buf[:min(count-off, chunk)*100]
		n := len(b) / 100
		for k := range workers {
			lo, hi := n*k/workers, n*(k+1)/workers
			if lo == hi {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if skew > 0 {
					elem.EncodeInto(elem.Rec100Codec{}, b[lo*100:hi*100], sortbench.Skewed(seed, start+off+int64(lo), int64(hi-lo), skew))
					return
				}
				gen.ReadAt(b[lo*100:hi*100], (off+int64(lo))*100) // in range: cannot fail
			}()
		}
		wg.Wait()
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
