// Package soalayout polices the split-complex (SoA) layout invariants of
// internal/soa outside the package that owns the representation:
//
//   - soa.Block composite literals: the planes' lengths and the (n, nb)
//     shape are coupled invariants that only soa.NewBlock/Reserve may
//     establish; a literal can silently produce mismatched planes.
//   - assignments to the .Re/.Im slice headers (b.Re = ..., including
//     append): rebinding a plane breaks the shared-shape contract and any
//     aliasing the owner relies on. Element writes (b.Re[i] = x) are the
//     whole point and stay free.
//   - soa.Pack/Unpack calls inside //cbs:hotpath functions: the pack
//     shims are API-boundary conversions; a kernel that converts per call
//     is paying the AoS cost plus a copy, which defeats the layout.
//   - complex(...) reconstruction from indexed .Re/.Im planes inside
//     //cbs:hotpath functions: element-wise re-materialization of
//     complex128 values inside a kernel is AoS arithmetic in disguise.
//     Reconstructing from plain local scalars remains allowed (that is
//     how results legitimately leave a kernel).
package soalayout

import (
	"go/ast"
	"go/types"

	"cbs/internal/analysis/framework"
)

// soaPkgPath is the package owning the split-complex representation.
const soaPkgPath = "cbs/internal/soa"

// shimFuncs are the boundary conversions banned inside hot-path kernels.
var shimFuncs = map[string]bool{
	"Pack":   true,
	"Unpack": true,
}

// Analyzer is the soalayout analysis.
var Analyzer = &framework.Analyzer{
	Name: "soalayout",
	Doc:  "enforce split-complex SoA layout invariants: no Block literals or plane-header writes outside internal/soa, no pack shims or per-element complex reconstruction in hot-path kernels",
	Run:  run,
}

func run(pass *framework.Pass) error {
	if pass.Pkg.Path() == soaPkgPath {
		return nil // the owner may do anything with its representation
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			switch decl := d.(type) {
			case *ast.FuncDecl:
				if decl.Body == nil {
					continue
				}
				check(pass, decl.Body, framework.HasHotPathDirective(decl))
			case *ast.GenDecl:
				// Package-level var blocks can also smuggle in literals.
				check(pass, decl, false)
			}
		}
	}
	return nil
}

// check walks one declaration subtree; hot enables the kernel-only rules.
func check(pass *framework.Pass, root ast.Node, hot bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if isSoABlock(pass.TypesInfo.TypeOf(n)) {
				pass.Reportf(n.Pos(), "soa.Block composite literal: construct blocks with soa.NewBlock so the plane lengths and shape stay consistent")
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkHeaderWrite(pass, lhs)
			}
		case *ast.CallExpr:
			if hot {
				checkHotCall(pass, n)
			}
		}
		return true
	})
}

// checkHeaderWrite flags assignments that rebind a Block's Re/Im plane.
func checkHeaderWrite(pass *framework.Pass, lhs ast.Expr) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Re" && sel.Sel.Name != "Im") {
		return
	}
	if isSoABlock(pass.TypesInfo.TypeOf(sel.X)) {
		pass.Reportf(lhs.Pos(), "write to the .%s plane header of a soa.Block: planes are owned by internal/soa (resize with Reserve, write elements in place)", sel.Sel.Name)
	}
}

// checkHotCall flags pack shims and per-element complex reconstruction
// inside hot-path kernels.
func checkHotCall(pass *framework.Pass, call *ast.CallExpr) {
	if fn := framework.CalleeOf(pass.TypesInfo, call); fn != nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == soaPkgPath && shimFuncs[fn.Name()] {
			pass.Reportf(call.Pos(), "soa.%s inside a hot-path kernel: pack/convert shims belong at the API boundary, not in the kernel", fn.Name())
		}
		return
	}
	if framework.BuiltinName(pass.TypesInfo, call) != "complex" {
		return
	}
	for _, arg := range call.Args {
		if planeIndexExpr(pass, arg) {
			pass.Reportf(call.Pos(), "complex() rebuilt from indexed SoA planes inside a hot-path kernel: keep the arithmetic on the split planes")
			return
		}
	}
}

// planeIndexExpr reports whether e contains an index expression over a
// Block's Re/Im plane (b.Re[i], b.Im[j+k], ...).
func planeIndexExpr(pass *framework.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		ix, ok := n.(*ast.IndexExpr)
		if !ok {
			return !found
		}
		if sel, ok := ast.Unparen(ix.X).(*ast.SelectorExpr); ok &&
			(sel.Sel.Name == "Re" || sel.Sel.Name == "Im") &&
			isSoABlock(pass.TypesInfo.TypeOf(sel.X)) {
			found = true
		}
		return !found
	})
	return found
}

// isSoABlock reports whether t is soa.Block[F] (any instantiation) or a
// pointer to one.
func isSoABlock(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == soaPkgPath && obj.Name() == "Block"
}
