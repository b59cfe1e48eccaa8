// Package ctxflow enforces the cancellation-plumbing discipline that PR 3
// threaded through the solve stack (Solve -> solveAll -> solvePoints ->
// dist.SolveBlock): once a context enters a call chain it must flow to the
// leaf, because the first fatal fault cancels all workers through it and a
// dropped context silently detaches a subtree from that signal.
//
// In library code (non-main packages, non-test files) the analyzer flags:
//
//   - context.Background() / context.TODO() calls. The only structural
//     exemption is the nil-default idiom
//
//     if ctx == nil { ctx = context.Background() }
//
//     which *joins* a caller-less entry point to the plumbing rather than
//     forking away from it. Anything else needs a //cbs:ctxescape waiver
//     with a reason (detached lifetimes like the jobs base context, or
//     public pre-context compatibility wrappers).
//
//   - dropped contexts: a function that has a context.Context parameter
//     but calls a context-less function F when the same package also
//     exports (or declares) a context-accepting sibling FContext. The
//     sibling convention is how this codebase names its plumbed variants
//     (Solve/SolveContext, SolveCBS/SolveCBSContext), so calling the
//     bare form from a plumbed frame is always a dropped cancellation.
//
//   - //cbs:cancellable contract violations: a function annotated as a
//     long-running cancellable loop must (a) carry a context parameter,
//     (b) actually contain a loop, and (c) poll cancellation inside a loop
//     (<-ctx.Done(), a select over it, or a ctx.Err() check). A worker
//     loop that promises cancellability and delivers none is exactly the
//     regression that turns a canceled sweep into a hung process.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"cbs/internal/analysis/framework"
)

// Analyzer is the ctxflow analysis.
var Analyzer = &framework.Analyzer{
	Name: "ctxflow",
	Doc:  "forbid context.Background/TODO and dropped contexts in library code; check //cbs:cancellable loops poll ctx",
	Run:  run,

	TestAware: true,
}

// WaiverDirective is the escape hatch: //cbs:ctxescape <reason>.
const WaiverDirective = "ctxescape"

// CancellableDirective marks a long-running loop that must poll ctx.
const CancellableDirective = "cancellable"

func run(pass *framework.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil // process entry points own their root contexts
	}
	waivers := framework.NewWaivers(pass, WaiverDirective)
	for _, f := range pass.Files {
		if framework.IsTestFile(pass.Fset, f) {
			continue // tests own their root contexts too
		}
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			checkFunc(pass, waivers, decl)
		}
	}
	return nil
}

func checkFunc(pass *framework.Pass, waivers *framework.Waivers, decl *ast.FuncDecl) {
	ctxParams := contextParams(pass, decl)
	checkCancellable(pass, decl, ctxParams)

	// Track the enclosing statement chain so the nil-default idiom can be
	// recognized structurally: ctx = context.Background() guarded by an
	// if ctx == nil test on the same object.
	var stack []ast.Node
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if call, ok := n.(*ast.CallExpr); ok {
			if name := rootContextCall(pass, call); name != "" {
				if !isNilDefault(pass, stack) && !waivers.Waived(call.Pos(), WaiverDirective) {
					pass.Reportf(call.Pos(), "context.%s() in library code forks away from the caller's cancellation; take a ctx parameter (or waive with //cbs:ctxescape <reason>)", name)
				}
			} else if len(ctxParams) > 0 {
				checkDroppedCtx(pass, waivers, call)
			}
		}
		return true
	}
	ast.Inspect(decl.Body, walk)
}

// contextParams returns the objects of the function's context.Context
// parameters (including method receivers' signatures' params only — not
// results).
func contextParams(pass *framework.Pass, decl *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if decl.Type.Params == nil {
		return out
	}
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj != nil && isContextType(obj.Type()) {
				out[obj] = true
			}
		}
	}
	return out
}

// rootContextCall returns "Background" or "TODO" when call is
// context.Background() / context.TODO(), else "".
func rootContextCall(pass *framework.Pass, call *ast.CallExpr) string {
	fn := framework.CalleeOf(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name()
	}
	return ""
}

// isNilDefault reports whether the stack (innermost last) is the sanctioned
// nil-default idiom: the Background() call is the sole RHS of an assignment
// to an identifier x, directly inside an if whose condition is x == nil.
func isNilDefault(pass *framework.Pass, stack []ast.Node) bool {
	// stack[...]= IfStmt > BlockStmt > AssignStmt > CallExpr
	if len(stack) < 4 {
		return false
	}
	call, _ := stack[len(stack)-1].(*ast.CallExpr)
	assign, ok := stack[len(stack)-2].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 || assign.Rhs[0] != call {
		return false
	}
	lhs, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	ifStmt, ok := stack[len(stack)-4].(*ast.IfStmt)
	if !ok || stack[len(stack)-3] != ifStmt.Body {
		return false
	}
	cond, ok := ifStmt.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.EQL {
		return false
	}
	var condIdent *ast.Ident
	switch {
	case isNilIdent(pass, cond.Y):
		condIdent, _ = ast.Unparen(cond.X).(*ast.Ident)
	case isNilIdent(pass, cond.X):
		condIdent, _ = ast.Unparen(cond.Y).(*ast.Ident)
	}
	return condIdent != nil &&
		pass.TypesInfo.Uses[condIdent] == pass.TypesInfo.Uses[lhs] &&
		pass.TypesInfo.Uses[condIdent] != nil
}

func isNilIdent(pass *framework.Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.TypesInfo.Uses[id].(*types.Nil)
	return isNil
}

// checkDroppedCtx flags calls to F from a ctx-carrying frame when the
// callee's package declares a context-accepting sibling FContext.
func checkDroppedCtx(pass *framework.Pass, waivers *framework.Waivers, call *ast.CallExpr) {
	fn := framework.CalleeOf(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || acceptsContext(sig) {
		return // already plumbed (or not inspectable)
	}
	sibling, ok := fn.Pkg().Scope().Lookup(fn.Name() + "Context").(*types.Func)
	if !ok {
		return
	}
	ssig, ok := sibling.Type().(*types.Signature)
	if !ok || !acceptsContext(ssig) {
		return
	}
	if waivers.Waived(call.Pos(), WaiverDirective) {
		return
	}
	pass.Reportf(call.Pos(), "call to %s.%s drops this function's ctx; call %sContext to keep the cancellation chain", fn.Pkg().Name(), fn.Name(), fn.Name())
}

// acceptsContext reports whether any parameter of sig is a context.Context.
func acceptsContext(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	return t != nil && t.String() == "context.Context"
}

// checkCancellable enforces the //cbs:cancellable contract.
func checkCancellable(pass *framework.Pass, decl *ast.FuncDecl, ctxParams map[types.Object]bool) {
	if _, ok := framework.Directive(decl, CancellableDirective); !ok {
		return
	}
	if len(ctxParams) == 0 {
		pass.Reportf(decl.Pos(), "//cbs:cancellable function %s has no context.Context parameter to cancel through", decl.Name.Name)
		return
	}
	hasLoop := false
	polls := false
	var inLoop func(n ast.Node, depth int)
	inLoop = func(root ast.Node, depth int) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				hasLoop = true
				inLoop(n.Body, depth+1)
				return false
			case *ast.RangeStmt:
				hasLoop = true
				inLoop(n.Body, depth+1)
				return false
			case *ast.CallExpr:
				if depth > 0 && isCtxMethod(pass, n, "Err", "Done") {
					polls = true
				}
			}
			return true
		})
	}
	inLoop(decl.Body, 0)
	switch {
	case !hasLoop:
		pass.Reportf(decl.Pos(), "//cbs:cancellable function %s has no loop: the annotation is stale", decl.Name.Name)
	case !polls:
		pass.Reportf(decl.Pos(), "//cbs:cancellable function %s never polls ctx.Done()/ctx.Err() inside its loop; a canceled solve would run to completion", decl.Name.Name)
	}
}

// isCtxMethod reports whether call is ctx.<one of names>() on a
// context.Context value.
func isCtxMethod(pass *framework.Pass, call *ast.CallExpr, names ...string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	match := false
	for _, n := range names {
		if sel.Sel.Name == n {
			match = true
		}
	}
	if !match {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	return ok && isContextType(tv.Type)
}
