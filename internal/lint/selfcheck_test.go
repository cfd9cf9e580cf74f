package lint_test

import (
	"testing"

	"repro/internal/lint"
)

// TestSelfCheckRepoClean is the dogfood gate and the suite's one entry
// point: every analyzer plus the //lint:ignore audit must report zero
// diagnostics over this repo's own tree (CI's lint job runs it by
// name). A failure here means a change reintroduced a violation one of
// the analyzers guards (or left a stale //lint:ignore behind) — fix
// the code or state a reason, don't weaken the analyzer.
func TestSelfCheckRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the module walk looks broken", len(pkgs))
	}
	for _, p := range pkgs {
		for _, e := range p.Errs {
			t.Errorf("%s does not type-check: %v", p.Path, e)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	diags := lint.ApplyIgnores(pkgs, lint.RunAnalyzers(pkgs, lint.All()), true)
	lint.SortDiagnostics(diags)
	for _, d := range diags {
		t.Errorf("repo is not lint-clean: %s", d)
	}
}
