package lint_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
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

// TestCIRunPatternsMatchTests guards CI's by-name steps. `go test -run
// 'A|B' ./pkg` still passes, with "no tests to run", once A is renamed
// away, so the step would silently check nothing. Every |-alternative
// of every -run pattern in the workflow must therefore match, as a
// regular expression the way go test reads it, some test in the
// step's packages. Commands that also pass -bench or -fuzz are
// skipped: there `-run xxx` deliberately selects no test.
func TestCIRunPatternsMatchTests(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	runFlag := regexp.MustCompile(`-run (?:'([^']*)'|(\S+))`)
	patterns := 0
	for _, line := range strings.Split(string(raw), "\n") {
		m := runFlag.FindStringSubmatch(line)
		if m == nil || !strings.Contains(line, "go test") || strings.Contains(line, "-bench") || strings.Contains(line, "-fuzz") {
			continue
		}
		patterns++
		var pkgs, names []string
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
				names = append(names, testNames(t, root, f)...)
			}
		}
		if len(names) == 0 {
			t.Errorf("ci.yml: no tests found in the packages of %q", strings.TrimSpace(line))
			continue
		}
		for _, alt := range strings.Split(m[1]+m[2], "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml: -run alternative %q: %v", alt, err)
				continue
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("ci.yml: -run alternative %q matches no test in %v", alt, pkgs)
			}
		}
	}
	if patterns < 5 {
		t.Fatalf("found %d by-name go test commands in ci.yml; the scan looks broken", patterns)
	}
}

// checkedDocs walks the module once and returns its root, the docs
// whose references are checked (DESIGN.md and every README.md) and the
// names of the functions the module's Go files declare. The roadmap
// and the change log are not checked: they record history, deleted
// names and moved lines included.
func checkedDocs(t *testing.T) (string, []string, map[string]bool) {
	t.Helper()
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`(?m)^func (\w+)\(`)
	declared := map[string]bool{}
	var docs []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(path, ".go"):
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
				declared[m[1]] = true
			}
		case d.Name() == "README.md" || path == filepath.Join(root, "DESIGN.md"):
			docs = append(docs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) < 2 || len(declared) < 100 {
		t.Fatalf("found %d docs and %d functions; the module walk looks broken", len(docs), len(declared))
	}
	return root, docs, declared
}

// TestDocsNameExistingTests guards the prose that cites tests. DESIGN.md
// and every README.md name tests, fuzz targets and benchmarks as the
// pins of the rules they describe; a name that no longer declares a
// function in the module points the reader at nothing.
func TestDocsNameExistingTests(t *testing.T) {
	root, docs, declared := checkedDocs(t)
	cited := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	for _, doc := range docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(root, doc)
		for _, name := range cited.FindAllString(string(raw), -1) {
			if !declared[name] {
				t.Errorf("%s names %s, which no function in the module declares", rel, name)
			}
		}
	}
}

// lineRef matches a `file.go:N` or `file.go:N–M` reference.
var lineRef = regexp.MustCompile(`([\w./-]+\.go):(\d+)(?:[–-](\d+))?`)

// lineRefProblem says what is wrong with one lineRef match in a doc in
// docDir, or "" if nothing is. The path is read relative to the doc,
// the module root or internal/, in that order; the file must have at
// least as many lines as the reference's last line.
func lineRefProblem(root, docDir string, m []string) string {
	last := m[2]
	if m[3] != "" {
		last = m[3]
	}
	n, _ := strconv.Atoi(last)
	for _, dir := range []string{docDir, root, filepath.Join(root, "internal")} {
		src, err := os.ReadFile(filepath.Join(dir, m[1]))
		if err != nil {
			continue
		}
		lines := strings.Count(string(src), "\n")
		if !strings.HasSuffix(string(src), "\n") {
			lines++
		}
		if n < 1 || n > lines {
			return fmt.Sprintf("%s points at line %d of a %d-line file", m[0], n, lines)
		}
		return ""
	}
	return fmt.Sprintf("%s names no file", m[0])
}

// TestDocsLineRefsInRange guards the prose that cites code by line: a
// `file.go:N` reference in DESIGN.md or a README must name an existing
// file with at least N lines, so a reference cannot outlive the code
// it points at by pointing past its end.
func TestDocsLineRefsInRange(t *testing.T) {
	root, docs, _ := checkedDocs(t)
	// The check itself must tell a good reference from bad ones.
	self := "internal/lint/selfcheck_test.go"
	for ref, ok := range map[string]bool{self + ":1": true, self + ":100000": false, "internal/lint/nosuch.go:1": false} {
		if got := lineRefProblem(root, root, lineRef.FindStringSubmatch(ref)) == ""; got != ok {
			t.Fatalf("lineRefProblem(%s) accepts=%v, want %v", ref, got, ok)
		}
	}
	for _, doc := range docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(root, doc)
		for _, m := range lineRef.FindAllStringSubmatch(string(raw), -1) {
			if p := lineRefProblem(root, filepath.Dir(doc), m); p != "" {
				t.Errorf("%s: %s", rel, p)
			}
		}
	}
}

// testNames lists the Test, Fuzz and Example functions of the package
// a go test argument names ("./dir" or "./dir/...").
func testNames(t *testing.T, root, pkg string) []string {
	t.Helper()
	dir, recursive := strings.CutSuffix(pkg, "/...")
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example)\w*)\(`)
	var names []string
	err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != filepath.Join(root, dir) && (!recursive || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
