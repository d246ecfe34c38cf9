// Package analysis is a dependency-free miniature of the
// golang.org/x/tools/go/analysis framework: just enough structure to
// host the demsortvet invariant suite (see cmd/demsortvet) without
// pulling x/tools into the module. An Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics; the
// framework owns position bookkeeping and the `//lint:allow`
// suppression protocol shared by every checker.
//
// The suite exists because the repo's tier-1 property — byte-identical
// output across every execution mode — rests on contracts the compiler
// cannot see: pooled buffers must return to the arena, backend-neutral
// phase code must never read the wall clock, blocking transport time
// must land in the right phase, failures crossing the cluster boundary
// must carry typed blame, and background goroutines must be joined.
// Each contract has burned a real debugging cycle (PRs 4, 6, 8);
// here they are machine-checked.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. Run inspects the Pass's package
// and reports violations via Pass.Reportf; returning an error aborts
// the whole vet run (reserved for internal failures, not findings).
type Analyzer struct {
	// Name identifies the analyzer in reports and in
	// `//lint:allow <name> <reason>` suppression comments.
	Name string
	// Doc is the one-paragraph contract statement shown by
	// `demsortvet -help`.
	Doc string
	// Run performs the check.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	// Analyzer is the reporting checker's name.
	Analyzer string
	// Pos locates the violation.
	Pos token.Position
	// Message states the violation.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowRe matches the suppression protocol: `//lint:allow <analyzer>
// <reason>`, the reason mandatory so every exception is argued in the
// source, next to the code it excuses.
var allowRe = regexp.MustCompile(`^//\s*lint:allow\s+(\S+)\s+(\S.*)$`)

// allowedLines collects, per analyzer name, the set of "file:line"
// keys a suppression comment covers: its own line and the line below
// it (so the comment reads naturally above the excused statement).
func allowedLines(fset *token.FileSet, files []*ast.File) map[string]map[string]bool {
	allowed := map[string]map[string]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				name := m[1]
				if allowed[name] == nil {
					allowed[name] = map[string]bool{}
				}
				pos := fset.Position(c.Pos())
				allowed[name][fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = true
				allowed[name][fmt.Sprintf("%s:%d", pos.Filename, pos.Line+1)] = true
			}
		}
	}
	return allowed
}

// Unit is one type-checked package ready for analysis.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// NewInfo allocates the fact maps the analyzers consume, for the type
// checker to fill (Unit.Info).
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// Run applies every analyzer to the unit and returns the surviving
// diagnostics (suppressions applied, position-sorted).
func Run(u *Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      u.Fset,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, u.Pkg.Path(), err)
		}
	}
	allowed := allowedLines(u.Fset, u.Files)
	kept := diags[:0]
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		if allowed[d.Analyzer][key] {
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept, nil
}

// ---- shared type-resolution helpers ----

// CalleeFunc resolves the function or method a call invokes, or nil
// when the callee is not a named function (function-typed variable,
// builtin, type conversion).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsPkgFunc reports whether call invokes the package-level function
// pkgPath.name.
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := CalleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath &&
		fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil
}

// IsMethodOf reports whether call invokes a method with the given name
// whose declaring package is pkgPath (interface methods resolve to the
// interface's package, concrete methods to the receiver type's).
func IsMethodOf(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := CalleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath &&
		fn.Name() == name && fn.Type().(*types.Signature).Recv() != nil
}

// IsWaitGroup reports whether t is sync.WaitGroup or *sync.WaitGroup.
func IsWaitGroup(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// Exported reports whether decl is part of the package's exported
// surface: an exported function, or an exported method on an exported
// receiver type.
func Exported(decl *ast.FuncDecl) bool {
	if !decl.Name.IsExported() {
		return false
	}
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return true
	}
	t := decl.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true // unrecognised receiver shape: assume exported
		}
	}
}

// NeutralPkg is the default backend-neutral package predicate: every
// package of the module except the wall-clock backends (cluster/tcp),
// the chaos injector (cluster/faulty, which sleeps by design) and the
// commands (launcher and bench tooling are allowed real time). The
// root package and every other internal package must route all timing
// through cluster.Stats / vtime so sim and tcp stay byte-identical.
func NeutralPkg(path string) bool {
	switch {
	case strings.HasPrefix(path, "demsort/internal/cluster/tcp"),
		strings.HasPrefix(path, "demsort/internal/cluster/faulty"),
		strings.HasPrefix(path, "demsort/cmd/"),
		strings.HasPrefix(path, "demsort/internal/analysis"):
		// The analysis packages shell out to the go tool and may
		// legitimately time it; they are not part of the data plane.
		return false
	}
	return path == "demsort" || strings.HasPrefix(path, "demsort/internal/")
}
