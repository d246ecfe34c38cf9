// Package load type-checks the analyzers' fixture packages without
// golang.org/x/tools: `go list -export -deps -json` compiles export data
// for everything a fixture imports (stdlib included), the fixture is
// parsed from source, and the stock gc importer resolves its imports
// straight from the export files the go command reported. Everything is
// stdlib; nothing needs the network. (The real tree is checked through
// `go vet -vettool`, which hands cmd/demsortvet its export data itself.)
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"

	"demsort/internal/analysis"
)

// Package is one parsed, type-checked package.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors holds non-fatal type-checking errors (the analyzers
	// still run on what was resolved).
	TypeErrors []error
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Export     string
}

// goList runs `go list -export -deps -json` on the patterns and
// decodes the package stream, keyed by import path.
func goList(dir string, patterns []string) (map[string]*listedPkg, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	pkgs := map[string]*listedPkg{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding: %v", patterns, err)
		}
		pkgs[p.ImportPath] = &p
	}
	return pkgs, nil
}

// exportLookup builds the gc importer's lookup function over the
// Export files go list reported.
func exportLookup(pkgs map[string]*listedPkg) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		p := pkgs[path]
		if p == nil || p.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(p.Export)
	}
}

// LoadFiles parses the given files as a single package with the given
// import path and type-checks it, resolving its imports (and theirs)
// through export data built from moduleDir. The fixture harness uses
// it to type-check testdata packages that import real module packages
// under a path of the harness's choosing, so path-sensitive analyzers
// see the package they would in the real tree.
func LoadFiles(moduleDir, pkgPath string, filenames []string) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	importSet := map[string]bool{}
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return nil, fmt.Errorf("%s: bad import %s", name, spec.Path.Value)
			}
			if p != "unsafe" { // no export data; the importer resolves it itself
				importSet[p] = true
			}
		}
	}
	var imports []string
	for p := range importSet {
		imports = append(imports, p)
	}
	pkgs := map[string]*listedPkg{}
	if len(imports) > 0 {
		var err error
		pkgs, err = goList(moduleDir, imports)
		if err != nil {
			return nil, err
		}
	}
	p := &Package{Fset: fset, Files: files, Info: analysis.NewInfo()}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", exportLookup(pkgs)),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	p.Types, _ = conf.Check(pkgPath, fset, files, p.Info)
	return p, nil
}
