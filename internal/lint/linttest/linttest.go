// Package linttest is the expected-diagnostic harness for the repo's
// analyzers, in the analysistest mold: a testdata package annotates
// offending lines with
//
//	sum += v // want "regexp"
//
// and Run asserts an exact match — every want matched by a diagnostic
// on its line, every diagnostic matched by a want. Multiple quoted
// regexps on one comment expect multiple diagnostics on that line.
// //lint:ignore directives are honored before matching, so testdata
// can also pin the suppression path (a flagged line carrying an ignore
// needs no want).
package linttest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// want is one expected diagnostic.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads the package in dir (which must sit inside this module, so
// testdata may import repro/... packages), runs exactly one analyzer
// over it, and asserts its diagnostics against the // want comments.
func Run(t *testing.T, a *lint.Analyzer, dir string) {
	t.Helper()
	root, err := lint.FindModuleRoot(dir)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range pkg.Errs {
		t.Errorf("testdata must type-check: %v", err)
	}
	if t.Failed() {
		t.FailNow()
	}

	pkgs := []*lint.Package{pkg}
	diags := lint.RunAnalyzers(pkgs, []*lint.Analyzer{a})
	// Honor ignore directives, but only assert the analyzer under test:
	// directive bookkeeping (unused/malformed) has its own unit tests.
	var kept []lint.Diagnostic
	for _, d := range lint.ApplyIgnores(pkgs, diags, false) {
		if d.Analyzer == a.Name {
			kept = append(kept, d)
		}
	}
	lint.SortDiagnostics(kept)

	wants := parseWants(t, pkg)
	for _, d := range kept {
		if w := matchWant(wants, d); w != nil {
			w.matched = true
			continue
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

// matchWant finds the first unmatched want on the diagnostic's line
// whose regexp matches its message.
func matchWant(wants []*want, d lint.Diagnostic) *want {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			return w
		}
	}
	return nil
}

// parseWants extracts // want "rx" ["rx" ...] comments.
func parseWants(t *testing.T, pkg *lint.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range splitQuoted(rest) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// splitQuoted splits `"a" "b c"` into its quoted tokens.
func splitQuoted(s string) []string {
	var out []string
	for {
		start := strings.IndexByte(s, '"')
		if start < 0 {
			return out
		}
		end := start + 1
		for end < len(s) {
			if s[end] == '\\' {
				end += 2
				continue
			}
			if s[end] == '"' {
				break
			}
			end++
		}
		if end >= len(s) {
			return out
		}
		out = append(out, s[start:end+1])
		s = s[end+1:]
	}
}
