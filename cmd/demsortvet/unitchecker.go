// The cmd/go vet-tool protocol, reimplemented on the stdlib (the
// canonical implementation lives in golang.org/x/tools/go/analysis/
// unitchecker, which this module deliberately does not depend on):
// cmd/go invokes the tool once per package with the path to a JSON
// config naming the unit's files and the export data of every
// dependency; the tool type-checks the unit, runs its analyzers,
// prints findings to stderr and exits 2. Packages analyzed only for
// facts (VetxOnly) are acknowledged by writing the (empty) facts file
// — this suite exchanges no facts.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
	"strings"

	"demsort/internal/analysis"
)

// vetConfig mirrors the fields of cmd/go's vet config this tool needs
// (the file carries more; unknown fields are ignored).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func unitcheckerMode(cfgPath string) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fatalf("reading config: %v", err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fatalf("parsing config %s: %v", cfgPath, err)
	}
	// Always acknowledge the facts protocol first: dependency units are
	// invoked with VetxOnly and need only the facts file.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("demsortvet-nofacts\n"), 0o666); err != nil {
			fatalf("writing facts: %v", err)
		}
	}
	if cfg.VetxOnly {
		return
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return
			}
			fatalf("%v", err)
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	info := analysis.NewInfo()
	conf := types.Config{
		Importer:  importer.ForCompiler(fset, "gc", lookup),
		Sizes:     types.SizesFor(compilerOf(cfg), runtime.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return
		}
		fatalf("typechecking %s: %v", cfg.ImportPath, err)
	}
	diags, err := analysis.Run(&analysis.Unit{Fset: fset, Files: files, Pkg: pkg, Info: info}, suite)
	if err != nil {
		fatalf("%v", err)
	}
	// vet also feeds the suite the _test.go halves of each package;
	// the invariants are production data-plane contracts, so test
	// files type-check as part of the unit but are not reported on.
	bad := false
	for _, d := range diags {
		if strings.HasSuffix(d.Pos.Filename, "_test.go") {
			continue
		}
		fmt.Fprintln(os.Stderr, d)
		bad = true
	}
	if bad {
		os.Exit(2)
	}
}

func compilerOf(cfg vetConfig) string {
	if cfg.Compiler != "" {
		return cfg.Compiler
	}
	return "gc"
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "demsortvet: "+format+"\n", args...)
	os.Exit(1)
}
