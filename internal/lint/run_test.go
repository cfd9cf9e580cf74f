package lint_test

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// directiveSrc exercises every //lint:ignore path: both sanctioned
// placements (own line above, end of the offending line), a stale
// directive with nothing to suppress, and the three malformed shapes.
const directiveSrc = `package a

func f() int {
	//lint:ignore floatdet suppression from the line above
	x := 1
	y := 2 //lint:ignore ctxflow suppression on the same line
	//lint:ignore ctxflow stale: nothing on the next line trips it
	z := 3
	//lint:ignore errbody
	//lint:ignore
	//lint:ignore bogus it does not exist
	return x + y + z
}
`

// loadTempModule writes src as the sole package of a throwaway module
// and loads it.
func loadTempModule(t *testing.T, src string) *lint.Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module tmpmod\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range pkg.Errs {
		t.Fatalf("temp module must type-check: %v", e)
	}
	return pkg
}

// lineOf returns the 1-based line containing substr.
func lineOf(t *testing.T, src, substr string) int {
	t.Helper()
	i := strings.Index(src, substr)
	if i < 0 {
		t.Fatalf("substring %q not in source", substr)
	}
	return 1 + strings.Count(src[:i], "\n")
}

func TestApplyIgnores(t *testing.T) {
	pkg := loadTempModule(t, directiveSrc)
	file := filepath.Join(pkg.Dir, "a.go")
	diag := func(analyzer, line string) lint.Diagnostic {
		return lint.Diagnostic{
			Analyzer: analyzer,
			Pos:      token.Position{Filename: file, Line: lineOf(t, directiveSrc, line), Column: 2},
			Message:  "synthetic " + analyzer + " finding",
		}
	}
	diags := []lint.Diagnostic{
		diag("floatdet", "x := 1"),          // directive on the line above
		diag("ctxflow", "y := 2"),           // directive at end of line
		diag("errbody", "return x + y + z"), // no directive: must survive
	}

	kept := lint.ApplyIgnores([]*lint.Package{pkg}, diags, true)
	lint.SortDiagnostics(kept)

	var messages []string
	for _, d := range kept {
		messages = append(messages, d.Analyzer+": "+d.Message)
	}
	joined := strings.Join(messages, "\n")

	if strings.Contains(joined, "synthetic floatdet") {
		t.Errorf("directive above the line did not suppress:\n%s", joined)
	}
	if strings.Contains(joined, "synthetic ctxflow") {
		t.Errorf("directive on the line did not suppress:\n%s", joined)
	}
	if !strings.Contains(joined, "synthetic errbody") {
		t.Errorf("undirected diagnostic was dropped:\n%s", joined)
	}
	for _, wantSub := range []string{
		"missing its reason",           // //lint:ignore errbody
		"malformed //lint:ignore",      // //lint:ignore
		`unknown analyzer "bogus"`,     // //lint:ignore bogus ...
		"unused //lint:ignore ctxflow", // stale directive
	} {
		if !strings.Contains(joined, wantSub) {
			t.Errorf("missing directive diagnostic %q in:\n%s", wantSub, joined)
		}
	}
	for _, d := range kept {
		if d.Analyzer == lint.DirectiveAnalyzer || d.Analyzer == "errbody" {
			continue
		}
		t.Errorf("unexpected diagnostic survived: %s", d)
	}
}

// TestApplyIgnoresDisabledAnalyzer checks a run of one analyzer, as
// linttest makes: with reportUnused off, the directives that belong to
// the analyzers left out of the run are not reported unused, since
// only the whole suite can tell they are stale. The run's own
// directive still suppresses, and directive hygiene does not depend on
// which analyzers ran.
func TestApplyIgnoresDisabledAnalyzer(t *testing.T) {
	pkg := loadTempModule(t, directiveSrc)
	file := filepath.Join(pkg.Dir, "a.go")
	diags := []lint.Diagnostic{{
		Analyzer: "floatdet",
		Pos:      token.Position{Filename: file, Line: lineOf(t, directiveSrc, "x := 1"), Column: 2},
		Message:  "synthetic floatdet finding",
	}}
	kept := lint.ApplyIgnores([]*lint.Package{pkg}, diags, false)
	var bad int
	for _, d := range kept {
		switch {
		case d.Analyzer != lint.DirectiveAnalyzer:
			t.Errorf("directive above the line did not suppress: %s", d)
		case strings.Contains(d.Message, "unused //lint:ignore"):
			t.Errorf("unused directive reported without reportUnused: %s", d)
		default:
			bad++
		}
	}
	if bad != 3 {
		t.Errorf("got %d directive diagnostics without reportUnused, want 3 (missing reason, malformed, unknown)", bad)
	}
}
