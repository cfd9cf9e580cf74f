package lint_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
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

// docSet is what the docs checks read from one walk of the module.
type docSet struct {
	root string
	// docs are the files whose references are checked: DESIGN.md and
	// every README.md. The roadmap and the change log are not checked:
	// they record history, deleted names and moved lines included.
	docs []string
	// funcs holds the names of the functions the module's Go files
	// declare, tests included.
	funcs map[string]bool
	// symbols holds "p", "p.N" and "p.N.M" for every package p of the
	// module's non-test Go files (package main aside), every top-level
	// declaration N of p and every method or field M of a type N.
	symbols map[string]bool
	// literals holds the string literals of the module's non-test Go
	// files: span and metric names such as "lp.phase1" take the p.N
	// shape too.
	literals map[string]bool
}

// checkedDocs walks the module once and returns its docSet.
func checkedDocs(t *testing.T) docSet {
	t.Helper()
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	ds := docSet{root: root, funcs: map[string]bool{}, symbols: map[string]bool{}, literals: map[string]bool{}}
	decl := regexp.MustCompile(`(?m)^func (\w+)\(`)
	fset := token.NewFileSet()
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
				ds.funcs[m[1]] = true
			}
			if strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			if f.Name.Name != "main" {
				addSymbols(ds.symbols, f)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if v, err := strconv.Unquote(lit.Value); err == nil {
						ds.literals[v] = true
					}
				}
				return true
			})
		case d.Name() == "README.md" || path == filepath.Join(root, "DESIGN.md"):
			ds.docs = append(ds.docs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.docs) < 2 || len(ds.funcs) < 100 || len(ds.symbols) < 100 {
		t.Fatalf("found %d docs, %d functions and %d symbols; the module walk looks broken", len(ds.docs), len(ds.funcs), len(ds.symbols))
	}
	return ds
}

// addSymbols records the package name, the top-level declarations and
// the methods and fields of the types of one parsed file.
func addSymbols(symbols map[string]bool, f *ast.File) {
	p := f.Name.Name
	symbols[p] = true
	add := func(names ...string) { symbols[p+"."+strings.Join(names, ".")] = true }
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name.Name)
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				add(id.Name, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						add(n.Name)
					}
				case *ast.TypeSpec:
					add(spec.Name.Name)
					st, ok := spec.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						for _, n := range field.Names {
							add(spec.Name.Name, n.Name)
						}
					}
				}
			}
		}
	}
}

// TestDocsNameExistingTests guards the prose that cites tests. DESIGN.md
// and every README.md name tests, fuzz targets and benchmarks as the
// pins of the rules they describe; a name that no longer declares a
// function in the module points the reader at nothing.
func TestDocsNameExistingTests(t *testing.T) {
	ds := checkedDocs(t)
	cited := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	for _, doc := range ds.docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(ds.root, doc)
		for _, name := range cited.FindAllString(string(raw), -1) {
			if !ds.funcs[name] {
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
	ds := checkedDocs(t)
	root := ds.root
	// The check itself must tell a good reference from bad ones.
	self := "internal/lint/selfcheck_test.go"
	for ref, ok := range map[string]bool{self + ":1": true, self + ":100000": false, "internal/lint/nosuch.go:1": false} {
		if got := lineRefProblem(root, root, lineRef.FindStringSubmatch(ref)) == ""; got != ok {
			t.Fatalf("lineRefProblem(%s) accepts=%v, want %v", ref, got, ok)
		}
	}
	for _, doc := range ds.docs {
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

// qualifiedRef matches a backticked `p.N` or `p.N.M`.
var qualifiedRef = regexp.MustCompile("`" + `([a-z]\w*)\.(\w+)(?:\.(\w+))?` + "`")

// qualifiedRefProblem says what is wrong with one qualifiedRef match,
// or "" if nothing is. Only references whose p names a module package
// are checked: the same shape also writes standard library names
// (`time.Now`) and file names (`go.mod`). A reference that is a string
// literal of the module's code names a span or metric and resolves.
func qualifiedRefProblem(ds docSet, m []string) string {
	p, n, mem := m[1], m[2], m[3]
	symbols := ds.symbols
	switch {
	case !symbols[p] || ds.literals[strings.Trim(m[0], "`")]:
		return ""
	case !symbols[p+"."+n]:
		return fmt.Sprintf("%s: package %s declares no %s", m[0], p, n)
	case mem != "" && !symbols[p+"."+n+"."+mem]:
		return fmt.Sprintf("%s: %s.%s has no method or field %s", m[0], p, n, mem)
	}
	return ""
}

// TestDocsQualifiedNamesResolve guards the prose that cites code by
// qualified name: a backticked `p.N` or `p.N.M` in DESIGN.md or a
// README, whose p names a package of the module, must name a top-level
// declaration N of p and, with M, a method or field M of N, unless it
// is a span or metric name the code spells out.
func TestDocsQualifiedNamesResolve(t *testing.T) {
	ds := checkedDocs(t)
	// The check itself must tell a good reference from bad ones.
	for ref, ok := range map[string]bool{
		"`lint.All`": true, "`lint.Analyzer.Name`": true, "`lint.Package.Name`": true, "`time.Now`": true,
		"`lp.phase1`": true, "`lint.Nosuch`": false, "`lint.Analyzer.Nosuch`": false,
	} {
		if got := qualifiedRefProblem(ds, qualifiedRef.FindStringSubmatch(ref)) == ""; got != ok {
			t.Fatalf("qualifiedRefProblem(%s) accepts=%v, want %v", ref, got, ok)
		}
	}
	for _, doc := range ds.docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(ds.root, doc)
		if rel == filepath.Join("bench", "README.md") {
			// Left out: the benchmark assembles some metric names at run
			// time (`server.recommend_direct_ms`), so no literal spells
			// them, and this file changes only with the benchmark itself.
			continue
		}
		for _, m := range qualifiedRef.FindAllStringSubmatch(string(raw), -1) {
			if p := qualifiedRefProblem(ds, m); p != "" {
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
