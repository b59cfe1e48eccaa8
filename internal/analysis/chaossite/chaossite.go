// Package chaossite polices the deterministic fault-injection surface of
// internal/chaos. Every call of a fault-drawing chaos.Injector method in
// production code is one fault site of the resilience story, and the
// seed-matrix CI jobs only cover what they can reach, so the analyzer
// turns three conventions into invariants:
//
//   - registration: every production call of an Injector fault method
//     carries a //cbs:chaossite <name> annotation on its line (or the line
//     above). Names are lowercase dotted identifiers ("bicg.breakdown",
//     "sweep.ckpt"); the annotation is the greppable registry that DESIGN.md
//     and the chaos-smoke seed matrices refer to.
//
//   - uniqueness: a site name is registered exactly once across the repo.
//     Each package publishes its site table as a package fact; a package
//     whose transitive imports already declare a name reports the
//     duplicate. (Within one package, duplicates are caught directly.)
//
//   - coverage: when test files are in the analysis view (-tests), every
//     Injector method used by a package's production sites must be
//     exercised by that package's own tests — a call of the method, the
//     matching chaos.Config rate field, or the matching CBS_CHAOS_* env
//     var. A fault site no seed matrix can reach is dead resilience code.
//     Waive genuinely cross-package-covered sites with
//     //cbs:chaosexempt <reason>.
//
// Inside the chaos package itself the analyzer checks that FromEnv wires
// every Config rate field (float64) to an environment key: a rate the seed
// matrix cannot set hides its sites from every chaos-smoke run.
package chaossite

import (
	"fmt"
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"cbs/internal/analysis/framework"
)

// Analyzer is the chaossite analysis.
var Analyzer = &framework.Analyzer{
	Name: "chaossite",
	Doc:  "require //cbs:chaossite registration (unique repo-wide via facts) and seed-matrix test coverage for every chaos fault site",
	Run:  run,

	TestAware: true,
}

// FactKey names the package-fact blob holding the site-name table.
const FactKey = "chaossites"

// SiteDirective registers one fault site: //cbs:chaossite <name>.
const SiteDirective = "chaossite"

// WaiverDirective exempts a site from the package-local coverage rule.
const WaiverDirective = "chaosexempt"

// siteNameRe is the site-name grammar.
var siteNameRe = regexp.MustCompile(`^[a-z][a-z0-9]*(?:[.-][a-z0-9]+)*$`)

// methodConfigFields maps each Injector fault method to the chaos.Config
// fields that arm it; referencing any of them (or the method itself, or
// the matching CBS_CHAOS_* key) in a package's tests counts as coverage.
var methodConfigFields = map[string][]string{
	"Breakdown":       {"Breakdown", "RestartBreakdown"},
	"FallbackFail":    {"FallbackFail"},
	"PointFault":      {"PointFault"},
	"CorruptHalo":     {"Halo"},
	"EnergyFault":     {"EnergyFault"},
	"CheckpointFault": {"CheckpointFault"},
	"TornRecord":      {"TornRecord"},
	"JobFault":        {"JobFault"},
	"CacheFault":      {"CacheFault"},
	"JobLogFault":     {"JobLogFault"},
	"AdoptFault":      {"AdoptFault"},
	"NEGFFault":       {"NEGFFault"},
	"NetReset":        {"NetReset"},
	"NetConn":         {"NetConn"},
}

// methodEnvKeys maps fault methods to their seed-matrix env keys.
var methodEnvKeys = map[string]string{
	"Breakdown":       "CBS_CHAOS_BREAKDOWN",
	"FallbackFail":    "CBS_CHAOS_FALLBACK",
	"PointFault":      "CBS_CHAOS_POINT",
	"CorruptHalo":     "CBS_CHAOS_HALO",
	"EnergyFault":     "CBS_CHAOS_ENERGY",
	"CheckpointFault": "CBS_CHAOS_CKPT",
	"TornRecord":      "CBS_CHAOS_TORN",
	"JobFault":        "CBS_CHAOS_JOB",
	"CacheFault":      "CBS_CHAOS_CACHE",
	"JobLogFault":     "CBS_CHAOS_JOBLOG",
	"AdoptFault":      "CBS_CHAOS_ADOPT",
	"NEGFFault":       "CBS_CHAOS_NEGF",
	"NetReset":        "CBS_CHAOS_NET_RESET",
	"NetConn":         "CBS_CHAOS_NET_CONN",
}

type site struct {
	name   string
	method string
	pos    ast.Node
}

func run(pass *framework.Pass) error {
	if isChaosPackage(pass.Pkg) {
		checkFromEnv(pass)
		return nil // the injector's own code and tests are not fault sites
	}
	waivers := framework.NewWaivers(pass, WaiverDirective)

	var sites []site
	methodsUsed := make(map[string][]ast.Node) // method -> production call sites
	covered := make(map[string]bool)           // methods exercised by this package's tests
	hasTests := false

	for _, f := range pass.Files {
		isTest := framework.IsTestFile(pass.Fset, f)
		if isTest {
			hasTests = true
		}
		annos := siteAnnotations(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			method, ok := injectorMethod(pass, call)
			if !ok {
				return true
			}
			if isTest {
				covered[method] = true
				return true
			}
			methodsUsed[method] = append(methodsUsed[method], call)
			line := pass.Fset.Position(call.Pos()).Line
			name, ok := annos[line]
			if !ok {
				pass.Reportf(call.Pos(), "unregistered chaos fault site: annotate this %s call with //cbs:chaossite <name> so the seed matrices can refer to it", method)
				return true
			}
			if !siteNameRe.MatchString(name) {
				pass.Reportf(call.Pos(), "chaos site name %q does not match the grammar %s", name, siteNameRe)
				return true
			}
			sites = append(sites, site{name: name, method: method, pos: call})
			return true
		})
		if isTest {
			scanConfigCoverage(pass, f, covered)
			scanEnvCoverage(f, covered)
		}
	}

	// Package-local duplicate registration.
	seen := make(map[string]site)
	table := make(map[string]string)
	for _, s := range sites {
		if prev, dup := seen[s.name]; dup {
			pass.Reportf(s.pos.Pos(), "chaos site %q is already registered at %s; site names are unique", s.name, pass.Fset.Position(prev.pos.Pos()))
			continue
		}
		seen[s.name] = s
		table[s.name] = fmt.Sprintf("%s %s", s.method, pass.Fset.Position(s.pos.Pos()))
	}

	// Cross-package uniqueness through the fact store: check the transitive
	// imports' published site tables before publishing our own.
	if pass.ReadFact != nil {
		for _, dep := range transitiveImports(pass.Pkg) {
			data, known := pass.ReadFact(dep.Path(), FactKey)
			if !known {
				continue // driver without facts: enforced where the dup is visible
			}
			for name, where := range framework.DecodeTable(data) {
				if s, clash := seen[name]; clash {
					pass.Reportf(s.pos.Pos(), "chaos site %q is already registered in %s (%s); site names are unique across the repo", name, dep.Path(), where)
				}
			}
		}
	}
	if pass.WriteFact != nil {
		pass.WriteFact(FactKey, framework.EncodeTable(table))
	}

	// Seed-matrix coverage: only judged when the analysis view includes
	// this package's tests (the -tests driver mode); a production-only view
	// cannot distinguish "uncovered" from "not loaded".
	if hasTests {
		for method, calls := range methodsUsed {
			if covered[method] {
				continue
			}
			for _, c := range calls {
				if waivers.Waived(c.Pos(), WaiverDirective) {
					continue
				}
				pass.Reportf(c.Pos(), "chaos fault site %s has no seed-matrix coverage in this package's tests: exercise it (call it, set chaos.Config.%s, or drive %s) or waive with //cbs:chaosexempt <reason>",
					method, strings.Join(methodConfigFields[method], "/"), methodEnvKeys[method])
			}
		}
	}
	return nil
}

// isChaosPackage identifies the injector-owning package (by name, so the
// analyzer's fixtures can model it without importing the real one).
func isChaosPackage(pkg *types.Package) bool {
	return pkg.Name() == "chaos"
}

// injectorMethod returns the method name when call is a fault-drawing
// method of chaos.Injector (any method except the seed accessor).
func injectorMethod(pass *framework.Pass, call *ast.CallExpr) (string, bool) {
	fn := framework.CalleeOf(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "chaos" {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Injector" {
		return "", false
	}
	if fn.Name() == "Seed" {
		return "", false // accessor, not a fault draw
	}
	return fn.Name(), true
}

// siteAnnotations maps line -> site name for the //cbs:chaossite comments
// of one file (covering their own line and the next, so the annotation can
// trail the call or sit above it).
func siteAnnotations(pass *framework.Pass, f *ast.File) map[int]string {
	out := make(map[int]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(strings.TrimSpace(c.Text), "//cbs:"+SiteDirective)
			if !ok {
				continue
			}
			name := strings.TrimSpace(rest)
			line := pass.Fset.Position(c.Pos()).Line
			out[line] = name
			if _, taken := out[line+1]; !taken {
				out[line+1] = name
			}
		}
	}
	return out
}

// scanConfigCoverage records fault methods armed through chaos.Config
// composite literals (keyed fields) or field assignments in f.
func scanConfigCoverage(pass *framework.Pass, f *ast.File, covered map[string]bool) {
	fieldToMethods := make(map[string][]string)
	for method, fields := range methodConfigFields {
		for _, fd := range fields {
			fieldToMethods[fd] = append(fieldToMethods[fd], method)
		}
	}
	mark := func(fieldName string, owner types.Type) {
		if !isChaosConfig(owner) {
			return
		}
		for _, m := range fieldToMethods[fieldName] {
			covered[m] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(n)
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						mark(id.Name, t)
					}
				}
			}
		case *ast.SelectorExpr:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok {
				mark(n.Sel.Name, tv.Type)
			}
		}
		return true
	})
}

// scanEnvCoverage records fault methods whose CBS_CHAOS_* env key appears
// as a string literal in f (tests that drive FromEnv via t.Setenv).
func scanEnvCoverage(f *ast.File, covered map[string]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok {
			return true
		}
		for method, key := range methodEnvKeys {
			if strings.Contains(lit.Value, key) {
				covered[method] = true
			}
		}
		return true
	})
}

// isChaosConfig reports whether t is (a pointer to) chaos.Config.
func isChaosConfig(t types.Type) bool {
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
	return obj.Pkg() != nil && obj.Pkg().Name() == "chaos" && obj.Name() == "Config"
}

// transitiveImports returns the module-internal transitive import closure
// of pkg (any package sharing pkg's first path element).
func transitiveImports(pkg *types.Package) []*types.Package {
	prefix, _, _ := strings.Cut(pkg.Path(), "/")
	var out []*types.Package
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if seen[imp] {
				continue
			}
			seen[imp] = true
			if imp.Path() == prefix || strings.HasPrefix(imp.Path(), prefix+"/") {
				out = append(out, imp)
				visit(imp)
			}
		}
	}
	visit(pkg)
	return out
}

// checkFromEnv verifies, inside the chaos package, that FromEnv arms every
// Config rate field from the environment.
func checkFromEnv(pass *framework.Pass) {
	// Collect the float64 rate fields of Config.
	cfgObj := pass.Pkg.Scope().Lookup("Config")
	fromEnv := pass.Pkg.Scope().Lookup("FromEnv")
	if cfgObj == nil || fromEnv == nil {
		return
	}
	st, ok := cfgObj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	rates := make(map[string]bool)
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if b, ok := f.Type().(*types.Basic); ok && b.Kind() == types.Float64 {
			rates[f.Name()] = true
		}
	}
	// Find the FromEnv declaration and the Config literal fields it sets.
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Name.Name != "FromEnv" || decl.Body == nil {
				continue
			}
			set := make(map[string]bool)
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || !isChaosConfig(pass.TypesInfo.TypeOf(lit)) {
					return true
				}
				for _, elt := range lit.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							set[id.Name] = true
						}
					}
				}
				return true
			})
			for name := range rates {
				if !set[name] {
					pass.Reportf(decl.Pos(), "FromEnv does not arm Config.%s: a rate the CBS_CHAOS_* seed matrix cannot set hides its fault sites from every chaos-smoke run", name)
				}
			}
		}
	}
}
