// Package lockedmerge enforces the per-worker statistics-merge discipline
// of the parallel solve layers (internal/core and internal/dist): shared
// state may be touched once per quadrature point (loop depth 1 inside a
// worker body), never once per column or per element (loop depth >= 2).
//
// Inside the scoped packages the analyzer flags, at nesting depth >= 2
// within one function body (each function literal — a goroutine body — is
// its own scope):
//
//   - mutex acquisition (any .Lock/.RLock/.Unlock/.RUnlock call)
//   - channel sends, receives, and select statements
//   - calls into the known internally-locking merge APIs:
//     ssm.Accumulator.{Add,AddPlanes,AddBlock} and
//     linsolve.GroupStop.{MarkConverged,ShouldStop,Converged}
//
// Depth 1 is deliberately legal: pulling a point off the shared queue and
// merging that point's worker-local stats under the global mutex is exactly
// the pattern PR 1 established; the regression this guards against is the
// old per-column locking that serialized the top parallel layer.
//
// Cancellation plumbing is exempt: receiving from a context's Done channel
// (`<-ctx.Done()`, including inside a select whose other arm is only a
// default) is how a worker notices a dead solve, carries no lock, and is
// legal at any depth.
package lockedmerge

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"cbs/internal/analysis/framework"
)

// Analyzer is the lockedmerge analysis.
var Analyzer = &framework.Analyzer{
	Name: "lockedmerge",
	Doc:  "forbid locks, channel ops and locking merge APIs in per-column loops of the parallel solve layers",
	Run:  run,
}

// ScopedPackages names (by package name) the packages under this rule. For
// core and dist the unit of merge is the quadrature point; for sweep it is
// the energy — a sweep worker merges its per-energy outcome (result slot +
// journal append) once per energy, never inside a per-attempt or per-pair
// loop.
var ScopedPackages = map[string]bool{
	"core":  true,
	"dist":  true,
	"sweep": true,
}

// lockMethodNames are method names treated as mutex acquisition wherever
// they appear.
var lockMethodNames = map[string]bool{
	"Lock": true, "Unlock": true, "RLock": true, "RUnlock": true,
}

// lockingAPIs maps "Type.Method" of known internally-locking merge APIs,
// per defining package name.
var lockingAPIs = map[string]map[string]bool{
	"ssm": {
		"Accumulator.Add":       true,
		"Accumulator.AddPlanes": true,
		"Accumulator.AddBlock":  true,
	},
	"linsolve": {
		"GroupStop.MarkConverged": true,
		"GroupStop.ShouldStop":    true,
		"GroupStop.Converged":     true,
	},
	"sweep": {
		"Journal.Append": true,
	},
}

func run(pass *framework.Pass) error {
	if !ScopedPackages[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if decl, ok := d.(*ast.FuncDecl); ok && decl.Body != nil {
				checkScope(pass, decl.Body)
			}
		}
	}
	return nil
}

// checkScope walks one function body (a FuncDecl body or a goroutine/
// closure literal body) tracking loop depth.
func checkScope(pass *framework.Pass, body *ast.BlockStmt) {
	depth := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkScope(pass, n.Body) // fresh worker scope
			return false
		case *ast.ForStmt:
			depth++
			ast.Inspect(n.Body, walk)
			depth--
			return false
		case *ast.RangeStmt:
			depth++
			ast.Inspect(n.Body, walk)
			depth--
			return false
		case *ast.SendStmt:
			if depth >= 2 {
				pass.Reportf(n.Pos(), "channel send in a nested (per-column) loop; move it to the per-point level")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && depth >= 2 && !isCtxDone(pass, n.X) {
				pass.Reportf(n.Pos(), "channel receive in a nested (per-column) loop; move it to the per-point level")
			}
		case *ast.SelectStmt:
			if depth >= 2 && !isCancellationPoll(pass, n) {
				pass.Reportf(n.Pos(), "select in a nested (per-column) loop; move it to the per-point level")
			}
		case *ast.CallExpr:
			if depth >= 2 {
				checkCall(pass, n)
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

func checkCall(pass *framework.Pass, call *ast.CallExpr) {
	fn := framework.CalleeOf(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	recv := receiverTypeName(fn)
	if recv == "" {
		return
	}
	if lockMethodNames[fn.Name()] {
		pass.Reportf(call.Pos(), "%s.%s in a nested (per-column) loop; merge worker-local state once per point instead", recv, fn.Name())
		return
	}
	if fn.Pkg() != nil {
		if apis, ok := lockingAPIs[fn.Pkg().Name()]; ok && apis[recv+"."+fn.Name()] {
			pass.Reportf(call.Pos(), "%s.%s locks internally and is called in a nested (per-column) loop; accumulate locally and merge once per point", recv, fn.Name())
		}
	}
}

// isCtxDone reports whether expr is a Done() call on a context.Context —
// the cancellation channel. Receiving from it is the sanctioned way for a
// worker to notice a dead solve: it holds no lock and never contends with
// the merge path, so it is exempt from the depth rule.
func isCtxDone(pass *framework.Pass, expr ast.Expr) bool {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	return tv.Type.String() == "context.Context"
}

// isCancellationPoll reports whether the select is pure cancellation
// plumbing: every case is either a receive from a context's Done channel or
// the default clause (the non-blocking poll idiom).
func isCancellationPoll(pass *framework.Pass, sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok {
			return false
		}
		if cc.Comm == nil {
			continue // default clause
		}
		var recv ast.Expr
		switch c := cc.Comm.(type) {
		case *ast.ExprStmt:
			recv = c.X
		case *ast.AssignStmt:
			if len(c.Rhs) == 1 {
				recv = c.Rhs[0]
			}
		}
		ue, ok := recv.(*ast.UnaryExpr)
		if !ok || ue.Op != token.ARROW || !isCtxDone(pass, ue.X) {
			return false
		}
	}
	return true
}

// receiverTypeName returns the bare receiver type name of a method ("" for
// plain functions), stripping any pointer.
func receiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	s := t.String()
	if i := strings.LastIndex(s, "."); i >= 0 {
		s = s[i+1:]
	}
	return s
}
