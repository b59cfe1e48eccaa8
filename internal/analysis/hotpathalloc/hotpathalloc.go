// Package hotpathalloc enforces the zero-allocation contract of functions
// annotated with //cbs:hotpath: the contour-solve kernels (blocked stencil
// applies, the block dual-BiCG step kernels, moment accumulators) must not
// allocate, lock, or escape into the runtime, because the paper's
// scalability rests on the steady-state solve loop touching only
// preallocated per-worker state.
//
// Inside an annotated function the analyzer flags:
//
//   - make / new / growing append / heap-escaping composite literals
//   - map operations (index, range, delete) and string/slice conversions
//   - function literals (closure captures allocate)
//   - go, defer, select, and channel sends/receives
//   - calls to anything that is not (a) an allowed builtin, (b) another
//     //cbs:hotpath function, or (c) a function in a whitelisted pure
//     package (math, math/bits, math/cmplx)
//
// The subtree of a panic(...) call is exempt: shape-guard panics are cold
// by definition and their message formatting may allocate.
//
// Cross-package hot-path annotations propagate through package facts. When
// a driver cannot supply dependency facts (a plain vettool run before the
// dependency was vetted), callees in unknown packages are trusted; the
// contract is still enforced where those callees are defined.
package hotpathalloc

import (
	"go/ast"
	"go/types"

	"cbs/internal/analysis/framework"
)

// Analyzer is the hotpathalloc analysis.
var Analyzer = &framework.Analyzer{
	Name: "hotpathalloc",
	Doc:  "forbid allocation, locking and unvetted calls in //cbs:hotpath functions",
	Run:  run,
}

// FactKey names the package-fact blob holding the hot-path function set.
const FactKey = "hotfuncs"

// allowedBuiltins never allocate and are always permitted.
var allowedBuiltins = map[string]bool{
	"len": true, "cap": true, "copy": true,
	"real": true, "imag": true, "complex": true,
	"min": true, "max": true,
}

// purePackages are stdlib packages whose functions neither allocate nor
// synchronize; calls into them are always permitted. (math/cmplx is allowed
// here for correctness — the cmplxhot analyzer separately polices its use
// in hot loops on performance grounds.)
var purePackages = map[string]bool{
	"math":       true,
	"math/bits":  true,
	"math/cmplx": true,
}

func run(pass *framework.Pass) error {
	hot := framework.HotFuncs(pass.Files, pass.TypesInfo)
	// Interface methods annotated //cbs:hotpath are hot-path contracts:
	// they join the fact set (and the local set) so calls through the
	// interface are vetted by name, while the body rules apply at each
	// implementation's own annotation. A nil decl is fine — only the keys
	// are consulted below and encoded into the fact blob.
	for key := range framework.HotIfaceMethods(pass.Files, pass.TypesInfo) {
		if _, ok := hot[key]; !ok {
			hot[key] = nil
		}
	}
	if pass.WriteFact != nil {
		pass.WriteFact(FactKey, framework.EncodeSet(hot))
	}
	// Walk in source order so diagnostics are deterministic.
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if decl, ok := d.(*ast.FuncDecl); ok && framework.HasHotPathDirective(decl) {
				checkBody(pass, hot, decl)
			}
		}
	}
	return nil
}

func checkBody(pass *framework.Pass, hot map[string]*ast.FuncDecl, decl *ast.FuncDecl) {
	if decl.Body == nil {
		return
	}
	// Interface conversions whose result is immediately type-asserted
	// (`any(x).([]float64)`, the SIMD dispatch idiom of the generic SoA
	// kernels) compile to a type check plus direct use — no interface value
	// is materialized and nothing escapes, so they are exempt from the
	// conversion rule.
	assertConv := map[ast.Expr]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if ta, ok := n.(*ast.TypeAssertExpr); ok {
			assertConv[ast.Unparen(ta.X)] = true
		}
		return true
	})
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			return checkCall(pass, hot, n, assertConv)
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "function literal in hot path (closure capture allocates)")
			return false
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in hot path")
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "defer in hot path (deferred call allocates and delays unlock)")
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "select in hot path")
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send in hot path")
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				pass.Reportf(n.Pos(), "channel receive in hot path")
			}
			if n.Op.String() == "&" {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "address of composite literal in hot path (escapes to heap)")
				}
			}
		case *ast.CompositeLit:
			switch pass.TypesInfo.TypeOf(n).Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(n.Pos(), "slice/map composite literal in hot path (allocates)")
			}
		case *ast.IndexExpr:
			if _, ok := pass.TypesInfo.TypeOf(n.X).Underlying().(*types.Map); ok {
				pass.Reportf(n.Pos(), "map access in hot path")
			}
		case *ast.RangeStmt:
			if _, ok := pass.TypesInfo.TypeOf(n.X).Underlying().(*types.Map); ok {
				pass.Reportf(n.Pos(), "map iteration in hot path")
			}
		}
		return true
	})
}

// checkCall vets one call expression; the return value tells ast.Inspect
// whether to descend into the call's children.
func checkCall(pass *framework.Pass, hot map[string]*ast.FuncDecl, call *ast.CallExpr, assertConv map[ast.Expr]bool) bool {
	// Type conversion?
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if assertConv[call] {
			return true // assert-guarded conversion: type check only, no boxing
		}
		// A conversion to a type parameter whose type set holds only
		// numeric basic types (the generic kernels' F(x) scalar casts) is
		// ordinary scalar arithmetic; its Underlying() is the constraint
		// interface, which must not trip the interface-conversion rule.
		if tp, ok := tv.Type.(*types.TypeParam); ok {
			if scalarTypeParam(tp) {
				return true
			}
			pass.Reportf(call.Pos(), "conversion to non-scalar type parameter %s in hot path", tv.Type)
			return true
		}
		switch t := tv.Type.Underlying().(type) {
		case *types.Slice, *types.Interface:
			pass.Reportf(call.Pos(), "conversion to %s in hot path (allocates)", tv.Type)
		case *types.Basic:
			if t.Info()&types.IsString != 0 {
				if bt, ok := pass.TypesInfo.TypeOf(call.Args[0]).Underlying().(*types.Basic); !ok || bt.Info()&types.IsString == 0 {
					pass.Reportf(call.Pos(), "conversion to string in hot path (allocates)")
				}
			}
		}
		return true
	}
	if name := framework.BuiltinName(pass.TypesInfo, call); name != "" {
		switch {
		case name == "panic":
			return false // cold shape-guard path: message formatting is exempt
		case allowedBuiltins[name]:
			return true
		case name == "make" || name == "new" || name == "append":
			pass.Reportf(call.Pos(), "%s in hot path (allocates)", name)
		case name == "delete":
			pass.Reportf(call.Pos(), "map delete in hot path")
		default:
			pass.Reportf(call.Pos(), "builtin %s in hot path", name)
		}
		return true
	}
	fn := framework.CalleeOf(pass.TypesInfo, call)
	if fn == nil {
		pass.Reportf(call.Pos(), "call through function value or interface in hot path")
		return true
	}
	pkg := fn.Pkg()
	if pkg == nil || purePackages[pkg.Path()] {
		return true
	}
	key := framework.FuncKey(fn)
	if pkg.Path() == pass.Pkg.Path() {
		if _, ok := hot[key]; !ok {
			pass.Reportf(call.Pos(), "hot path calls %s, which is not //cbs:hotpath", fn.Name())
		}
		return true
	}
	if pass.ReadFact == nil {
		return true
	}
	data, known := pass.ReadFact(pkg.Path(), FactKey)
	if !known {
		return true // no facts for that package: trust, enforced at definition site
	}
	if !framework.DecodeSet(data)[key] {
		pass.Reportf(call.Pos(), "hot path calls %s, which is not //cbs:hotpath", key)
	}
	return true
}

// scalarTypeParam reports whether every type in the parameter's type set is
// a non-string basic type (so converting to it is a register operation, not
// an allocation). Methodless unions of ~float32|~float64-style terms
// qualify; anything unresolvable is conservatively rejected.
func scalarTypeParam(tp *types.TypeParam) bool {
	iface, ok := tp.Constraint().Underlying().(*types.Interface)
	if !ok || iface.NumMethods() != 0 || iface.NumEmbeddeds() == 0 {
		return false
	}
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		u, ok := iface.EmbeddedType(i).(*types.Union)
		if !ok {
			return false
		}
		for j := 0; j < u.Len(); j++ {
			b, ok := u.Term(j).Type().Underlying().(*types.Basic)
			if !ok || b.Info()&types.IsString != 0 {
				return false
			}
		}
	}
	return true
}
