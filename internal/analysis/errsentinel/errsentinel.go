// Package errsentinel enforces the typed-error discipline of PRs 3-4: the
// recovery and escalation ladders branch on sentinel identity through
// errors.Is, so an error that loses its chain (formatted with %v instead of
// wrapped with %w) or is matched by string comparison silently falls off
// every ladder and lands in the catch-all retry rung.
//
// In library code (non-main packages, non-test files) the analyzer flags:
//
//   - fmt.Errorf calls where an argument of type error is rendered with a
//     non-wrapping verb (%v, %s, %q, ...): the produced error no longer
//     errors.Is-matches the cause. Waive deliberate chain breaks with
//     //cbs:errtext <reason> (e.g. serializing an error into a journal
//     record, where carrying the live chain would be wrong).
//
//   - error identity tested by string: err.Error() compared with == / !=,
//     used as a switch tag, or passed to strings.Contains/HasPrefix/
//     HasSuffix/EqualFold. Same waiver.
//
// It also publishes each package's exported sentinel set (package-level
// `var Err... = ...` of type error) as a package fact, and checks
// escalation-ladder exhaustiveness: a function annotated
//
//	//cbs:errladder <pkgname> <pkgname>...
//
// must test errors.Is against every exported sentinel of each named
// imported package. internal/sweep's retry ladder carries the annotation
// for core, contour and comm, so adding a sentinel to any of those
// packages breaks the build until the ladder classifies it (or the rung is
// explicitly waived where the annotation sits).
package errsentinel

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"cbs/internal/analysis/framework"
)

// Analyzer is the errsentinel analysis.
var Analyzer = &framework.Analyzer{
	Name: "errsentinel",
	Doc:  "require %w wrapping and errors.Is matching for library errors; check //cbs:errladder exhaustiveness against exported sentinel facts",
	Run:  run,

	TestAware: true,
}

// FactKey names the package-fact blob holding the exported sentinel names.
const FactKey = "errsentinels"

// WaiverDirective is the escape hatch: //cbs:errtext <reason>.
const WaiverDirective = "errtext"

// LadderDirective marks a function whose errors.Is switch must cover every
// sentinel of the listed packages.
const LadderDirective = "errladder"

func run(pass *framework.Pass) error {
	if pass.WriteFact != nil {
		pass.WriteFact(FactKey, framework.EncodeList(exportedSentinels(pass.Pkg)))
	}
	if pass.Pkg.Name() == "main" {
		return nil // CLIs render errors for humans; wrapping is the library's job
	}
	waivers := framework.NewWaivers(pass, WaiverDirective)
	for _, f := range pass.Files {
		if framework.IsTestFile(pass.Fset, f) {
			continue // tests assert on errors however they need to
		}
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			checkLadder(pass, decl)
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkErrorf(pass, waivers, n)
					checkStringMatch(pass, waivers, n)
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						checkCompare(pass, waivers, n)
					}
				case *ast.SwitchStmt:
					if n.Tag != nil && isErrorText(pass, n.Tag) {
						if !waivers.Waived(n.Tag.Pos(), WaiverDirective) {
							pass.Reportf(n.Tag.Pos(), "switch on err.Error() matches errors by string; branch with errors.Is/As on typed sentinels")
						}
					}
				}
				return true
			})
		}
	}
	return nil
}

// exportedSentinels collects the package's exported Err* package-level
// variables of type error.
func exportedSentinels(pkg *types.Package) []string {
	var out []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if !strings.HasPrefix(name, "Err") || !token.IsExported(name) {
			continue
		}
		v, ok := scope.Lookup(name).(*types.Var)
		if !ok || !types.Identical(v.Type(), errorType()) {
			continue
		}
		out = append(out, name)
	}
	return out
}

func errorType() types.Type {
	return types.Universe.Lookup("error").Type()
}

// checkErrorf flags fmt.Errorf calls that render an error argument with a
// non-wrapping verb.
func checkErrorf(pass *framework.Pass, waivers *framework.Waivers, call *ast.CallExpr) {
	fn := framework.CalleeOf(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" || len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return // non-constant format: not statically checkable
	}
	format, err := strconvUnquote(lit.Value)
	if err {
		return
	}
	verbs := formatVerbs(format)
	for i, arg := range call.Args[1:] {
		if i >= len(verbs) {
			break
		}
		if verbs[i] == 'w' {
			continue
		}
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok || tv.Type == nil || !types.AssignableTo(tv.Type, errorType()) {
			continue
		}
		if isNilConst(tv) {
			continue
		}
		if waivers.Waived(arg.Pos(), WaiverDirective) {
			continue
		}
		pass.Reportf(arg.Pos(), "error formatted with %%%c loses its chain (errors.Is can no longer match the cause); wrap with %%w", verbs[i])
	}
}

func isNilConst(tv types.TypeAndValue) bool {
	_, isNil := tv.Type.(*types.Basic)
	return isNil && tv.Type.(*types.Basic).Kind() == types.UntypedNil
}

// formatVerbs returns, per consumed argument, the verb letter that renders
// it ('v', 'w', 's', ...). '*' width/precision arguments consume a slot and
// are reported as '*'.
func formatVerbs(format string) []byte {
	var out []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i < len(format) && format[i] == '%' {
			continue // literal %%
		}
		// Flags, width, precision (with * consuming an argument each).
		for i < len(format) {
			c := format[i]
			if c == '*' {
				out = append(out, '*')
				i++
				continue
			}
			if c == '+' || c == '-' || c == '#' || c == ' ' || c == '0' || c == '.' || (c >= '0' && c <= '9') {
				i++
				continue
			}
			break
		}
		if i < len(format) {
			out = append(out, format[i])
		}
	}
	return out
}

// strconvUnquote is a minimal unquote for string literals; reports failure.
func strconvUnquote(s string) (string, bool) {
	if len(s) >= 2 && s[0] == '`' {
		return s[1 : len(s)-1], false
	}
	// Interpreted string: escape sequences other than \" and \\ don't
	// affect verb scanning, so a light-weight unquote suffices.
	if len(s) >= 2 && s[0] == '"' {
		body := s[1 : len(s)-1]
		body = strings.ReplaceAll(body, `\"`, `"`)
		body = strings.ReplaceAll(body, `\\`, `\`)
		return body, false
	}
	return "", true
}

// checkCompare flags err.Error() == "..." style identity tests.
func checkCompare(pass *framework.Pass, waivers *framework.Waivers, cmp *ast.BinaryExpr) {
	if !isErrorText(pass, cmp.X) && !isErrorText(pass, cmp.Y) {
		return
	}
	if waivers.Waived(cmp.Pos(), WaiverDirective) {
		return
	}
	pass.Reportf(cmp.Pos(), "error compared by Error() string; match identity with errors.Is (or errors.As for typed errors)")
}

// stringMatchFuncs are strings-package predicates that, applied to an
// error's text, amount to string matching of error identity.
var stringMatchFuncs = map[string]bool{
	"Contains": true, "HasPrefix": true, "HasSuffix": true, "EqualFold": true,
}

// checkStringMatch flags strings.Contains(err.Error(), ...) and friends.
func checkStringMatch(pass *framework.Pass, waivers *framework.Waivers, call *ast.CallExpr) {
	fn := framework.CalleeOf(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "strings" || !stringMatchFuncs[fn.Name()] {
		return
	}
	for _, arg := range call.Args {
		if isErrorText(pass, arg) {
			if !waivers.Waived(call.Pos(), WaiverDirective) {
				pass.Reportf(call.Pos(), "strings.%s over err.Error() matches errors by string; use errors.Is/As on typed sentinels", fn.Name())
			}
			return
		}
	}
}

// isErrorText reports whether e is a call of the Error() method of an
// error value.
func isErrorText(pass *framework.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" || len(call.Args) != 0 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	return ok && tv.Type != nil && types.AssignableTo(tv.Type, errorType())
}

// checkLadder enforces //cbs:errladder exhaustiveness.
func checkLadder(pass *framework.Pass, decl *ast.FuncDecl) {
	args, ok := framework.Directive(decl, LadderDirective)
	if !ok {
		return
	}
	wanted := strings.Fields(args)
	if len(wanted) == 0 {
		pass.Reportf(decl.Pos(), "//cbs:errladder without package names: list the sentinel packages the ladder must cover")
		return
	}
	// Resolve the named packages among the direct imports.
	byName := make(map[string]*types.Package)
	for _, imp := range pass.Pkg.Imports() {
		byName[imp.Name()] = imp
	}
	// Collect every errors.Is(_, pkg.Sentinel) target in the body.
	handled := make(map[string]bool) // "pkgpath.ErrName"
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := framework.CalleeOf(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "errors" || (fn.Name() != "Is" && fn.Name() != "As") || len(call.Args) != 2 {
			return true
		}
		sel, ok := ast.Unparen(call.Args[1]).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var); ok && obj.Pkg() != nil {
			handled[obj.Pkg().Path()+"."+obj.Name()] = true
		}
		return true
	})
	for _, name := range wanted {
		dep, ok := byName[name]
		if !ok {
			pass.Reportf(decl.Pos(), "//cbs:errladder names package %q, which is not imported here", name)
			continue
		}
		sentinels := sentinelsOf(pass, dep)
		for _, s := range sentinels {
			if !handled[dep.Path()+"."+s] {
				pass.Reportf(decl.Pos(), "escalation ladder %s does not handle %s.%s with errors.Is; every sentinel of %s needs a rung (or a terminal classification)", decl.Name.Name, name, s, name)
			}
		}
	}
}

// sentinelsOf returns the exported sentinel names of an imported package:
// from its published fact when the driver supplies facts, else recovered
// from the import's type information (both views agree — the fact is
// EncodeList(exportedSentinels)).
func sentinelsOf(pass *framework.Pass, dep *types.Package) []string {
	if pass.ReadFact != nil {
		if data, known := pass.ReadFact(dep.Path(), FactKey); known {
			return framework.DecodeList(data)
		}
	}
	return exportedSentinels(dep)
}
