// Package phasestats enforces the phase-attribution contract: a
// blocking transport operation (Barrier, AllToAllv, Recv, …) charges
// its wait time to whatever phase is current, so phase code must
// switch accounting with SetPhase *before* its first blocking op —
// otherwise one phase's communication silently inflates its
// predecessor's timing, and the per-phase figures the paper
// reproduction stands on mis-attribute where time goes.
//
// The check is intra-procedural: within any function that calls
// SetPhase, no blocking transport op may appear textually before the
// first SetPhase. Functions that never call SetPhase are helpers
// running inside their caller's phase and are not judged.
package phasestats

import (
	"go/ast"
	"go/token"
	"strings"

	"demsort/internal/analysis"
)

const clusterPath = "demsort/internal/cluster"

// blockingOps are the cluster.Node / Transport / A2AStream operations
// that can wait on peers (and therefore accumulate phase time).
// OpenA2AStream itself is non-blocking; Post never blocks by contract.
var blockingOps = map[string]bool{
	"Barrier":        true,
	"AllToAllv":      true,
	"AllGather":      true,
	"Bcast":          true,
	"AllReduceInt64": true,
	"ExchangeAny":    true,
	"Send":           true,
	"Recv":           true,
	"Collect":        true,
}

// Analyzer is the phase-attribution checker.
var Analyzer = &analysis.Analyzer{
	Name: "phasestats",
	Doc: "in phase code, SetPhase must precede the first blocking transport " +
		"op of the function, so no phase's wait time is attributed to its " +
		"predecessor",
	Run: run,
}

// targetPkg limits the check to the phase-driving packages; backends
// implement the ops rather than consume them.
func targetPkg(path string) bool {
	for _, p := range []string{"job", "core", "stripesort", "baseline", "dselect", "mselect"} {
		if path == "demsort/internal/"+p || strings.HasPrefix(path, "demsort/internal/"+p+"/") {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !targetPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	firstSet := token.NoPos
	type blockCall struct {
		pos  token.Pos
		name string
	}
	var blocking []blockCall
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if analysis.IsMethodOf(pass.TypesInfo, call, clusterPath, "SetPhase") {
			if !firstSet.IsValid() || call.Pos() < firstSet {
				firstSet = call.Pos()
			}
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == clusterPath && blockingOps[fn.Name()] {
			blocking = append(blocking, blockCall{call.Pos(), fn.Name()})
		}
		return true
	})
	if !firstSet.IsValid() {
		return // helper running inside the caller's phase
	}
	for _, b := range blocking {
		if b.pos < firstSet {
			pass.Reportf(b.pos,
				"blocking transport op %s before this function's first SetPhase: its wait time is charged to the previous phase",
				b.name)
		}
	}
}
