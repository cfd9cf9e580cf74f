// Package lint is the repo's analyzer suite: a stdlib-only (go/parser
// + go/types, no golang.org/x/tools) loader, a diagnostic reporter with
// //lint:ignore suppression, and the domain analyzers guarding the
// conventions this repo's PRs established in prose that go vet cannot
// see — the in-order-reduction discipline for deterministic float
// results, the unified JSON error body, ctx-threaded tracing and the
// injected-clock seam. TestSelfCheckRepoClean runs it over the module.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis in
// miniature (Analyzer, Pass, Reportf, a // want test harness) so the
// analyzers would port to the real driver mechanically if the repo
// ever took the dependency — but it takes none: go.mod stays empty.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named check. Run inspects a single type-checked
// package and reports findings through the pass.
type Analyzer struct {
	// Name is the analyzer's identifier: the first field of a
	// //lint:ignore directive.
	Name string
	// Doc is a one-paragraph description, led by a one-line summary.
	Doc string
	// Run performs the check over pass.Pkg.
	Run func(pass *Pass)
}

// Pass carries one analyzer's view of one package plus the reporter.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// Diagnostic is one finding, positioned for file:line:col rendering.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// RunAnalyzers applies every analyzer to every package and returns the
// raw diagnostics, unsuppressed and unsorted. Callers normally follow
// with ApplyIgnores and SortDiagnostics.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, diags: &diags}
			a.Run(pass)
		}
	}
	return diags
}
