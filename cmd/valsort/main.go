// Command valsort validates a file of 100-byte records, like the
// SortBenchmark's valsort: order violations, record count, duplicate
// keys and an order-independent checksum (for comparing against the
// input file's digest). Each file is streamed, so it needs O(1) memory
// whatever the files' size. Its summary line has the form of the line
// demsort's launcher prints from its workers' in-flight digests, so the
// two can be compared as text.
//
// Usage:
//
//	valsort <file> [<file>...]
//
// Multiple files are treated as consecutive partitions of one sorted
// sequence; cross-boundary order is checked too.
package main

import (
	"fmt"
	"os"

	"demsort/internal/sortbench"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: valsort <file> [<file>...]")
		os.Exit(2)
	}
	var parts []sortbench.Summary
	for _, path := range os.Args[1:] {
		s, err := summarize(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "valsort: %s: %v\n", path, err)
			os.Exit(1)
		}
		parts = append(parts, s)
	}
	s := sortbench.Merge(parts)
	fmt.Println("valsort:", s)
	if s.Unsorted > 0 {
		fmt.Println("NOT SORTED")
		os.Exit(1)
	}
	fmt.Println("SORTED")
}

func summarize(path string) (sortbench.Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return sortbench.Summary{}, err
	}
	defer f.Close()
	return sortbench.SummarizeReader(f)
}
