// Command demsortvet is the repo's invariant suite: five custom
// analyzers that mechanically enforce the contracts the tier-1
// byte-identical property rests on (see the analyzer packages under
// internal/analysis for the contracts and the PRs that motivated
// them).
//
// It speaks cmd/go's unit-checker protocol, so vet's caching and
// test-package coverage come with it:
//
//	go build -o bin/demsortvet ./cmd/demsortvet
//	go vet -vettool=$(pwd)/bin/demsortvet ./...
//
// (`make lint` does both.) Deliberate exceptions are annotated in the
// source with `//lint:allow <analyzer> <reason>`.
package main

import (
	"fmt"
	"os"
	"strings"

	"demsort/internal/analysis"
	"demsort/internal/analysis/abortcheck"
	"demsort/internal/analysis/bufpoolcheck"
	"demsort/internal/analysis/gojoin"
	"demsort/internal/analysis/phasestats"
	"demsort/internal/analysis/wallclock"
)

// suite is the full demsortvet analyzer set.
var suite = []*analysis.Analyzer{
	bufpoolcheck.Analyzer,
	wallclock.Analyzer,
	phasestats.Analyzer,
	abortcheck.Analyzer,
	gojoin.Analyzer,
}

func main() {
	args := os.Args[1:]
	// cmd/go's vettool protocol: version probe, flag discovery, then
	// one invocation per package with a JSON config file.
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" {
			fmt.Println("demsortvet version 1")
			return
		}
		if a == "-flags" || a == "--flags" {
			fmt.Println("[]")
			return
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		unitcheckerMode(args[0])
		return
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=/path/to/demsortvet [packages]")
	for _, a := range suite {
		fmt.Fprintf(os.Stderr, "\n%s: %s\n", a.Name, a.Doc)
	}
	os.Exit(2)
}
