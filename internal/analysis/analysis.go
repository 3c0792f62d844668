// Package analysis is sprintvet's first-party static-analysis suite: a
// minimal go/analysis-shaped framework plus the four analyzers that
// enforce the simulator's determinism and hot-path contracts at compile
// time. The runtime pins (the fleet's TestRunContract and
// TestSimulateSteadyStateAllocations)
// prove the contracts hold on the configurations they run; these
// analyzers prove the *code shapes* that break them — wall-clock reads,
// global randomness, map-order-dependent reductions, allocating hot
// paths, unguarded recorder hooks — never enter the tree in the first
// place.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) so the analyzers could be ported to the
// upstream driver verbatim, but it is built entirely on the standard
// library: packages load through `go list -export` and type-check with
// go/types against gc export data (see load.go), which keeps the module
// dependency-free.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned in the analyzed package's
// file set.
type Diagnostic struct {
	// Pos is the finding's location.
	Pos token.Pos
	// Analyzer names the analyzer that reported it ("sprintvet" for
	// framework findings such as malformed suppression directives).
	Analyzer string
	// Message states the violation.
	Message string
}

// Pass carries one analyzer's view of one type-checked package.
// Files holds only the files the analyzer should inspect: test files
// are excluded — the determinism contracts govern simulator code, and
// tests legitimately use wall clocks and unordered maps.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one static check.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and in
	// //sprintvet:ignore directives.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// AppliesTo reports whether the analyzer runs on the package with
	// the given import path; nil means every package. Fixture packages
	// under a testdata/src tree are always analyzed — they are only
	// reachable by naming them explicitly.
	AppliesTo func(pkgPath string) bool
	// Run inspects the package and reports findings through the pass.
	Run func(*Pass) error
}

// applies resolves the AppliesTo predicate with the testdata override.
func (a *Analyzer) applies(pkgPath string) bool {
	if strings.Contains(pkgPath, "/testdata/src/") {
		return true
	}
	if a.AppliesTo == nil {
		return true
	}
	return a.AppliesTo(pkgPath)
}

// Analyzers returns the full sprintvet suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NondeterminismAnalyzer,
		FloatOrderAnalyzer,
		AllocFreeAnalyzer,
		TraceHookAnalyzer,
	}
}

// Run executes the analyzers over the packages, applies
// //sprintvet:ignore suppressions, validates the directives themselves,
// and returns the surviving findings sorted by position. An analyzer
// error (a framework bug, not a finding) aborts the run.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		ds, err := runPackage(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		out = append(out, ds...)
	}
	sortDiagnostics(pkgs, out)
	return out, nil
}

// runPackage runs the applicable analyzers on one package and filters
// the findings through the package's suppression directives.
func runPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	files := nonTestFiles(pkg)
	dirs, dirDiags := collectDirectives(pkg.Fset, files, analyzers)
	out := dirDiags
	for _, a := range analyzers {
		if !a.applies(pkg.Path) {
			continue
		}
		var ds []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			diags:     &ds,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		for _, d := range ds {
			if !suppressed(pkg.Fset, dirs, a.Name, d.Pos) {
				out = append(out, d)
			}
		}
	}
	return out, nil
}

// nonTestFiles filters the package's syntax down to non-test files.
func nonTestFiles(pkg *Package) []*ast.File {
	var files []*ast.File
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, f)
	}
	return files
}

// sortDiagnostics orders findings by file position for stable output.
func sortDiagnostics(pkgs []*Package, ds []Diagnostic) {
	pos := func(d Diagnostic) token.Position {
		for _, pkg := range pkgs {
			if f := pkg.Fset.File(d.Pos); f != nil {
				return f.Position(d.Pos)
			}
		}
		return token.Position{}
	}
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := pos(ds[i]), pos(ds[j])
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}

// --- shared AST/type helpers ---

// calleeFunc resolves a call to the *types.Func it statically invokes,
// or nil for dynamic calls, conversions, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
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

// pkgFunc reports whether fn is the package-level function path.name
// (methods never match).
func pkgFunc(fn *types.Func, path, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == path && fn.Name() == name
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// rootIdent walks x down selector/index/star chains to its base
// identifier: the variable whose storage an assignment to x mutates.
func rootIdent(x ast.Expr) *ast.Ident {
	for {
		switch e := ast.Unparen(x).(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.SliceExpr:
			x = e.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether the identifier's object is declared
// inside the [lo, hi] source interval — used to split range-body locals
// from enclosing state.
func declaredWithin(info *types.Info, id *ast.Ident, lo, hi token.Pos) bool {
	obj := info.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() >= lo && obj.Pos() <= hi
}

// mentionsLocal reports whether expr references any identifier declared
// inside the [lo, hi] interval.
func mentionsLocal(info *types.Info, expr ast.Expr, lo, hi token.Pos) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && declaredWithin(info, id, lo, hi) {
			found = true
		}
		return !found
	})
	return found
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isFloat reports whether t's underlying basic kind is a float or
// complex type (the non-associative arithmetic families).
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// isString reports whether t's underlying basic kind is string.
func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
