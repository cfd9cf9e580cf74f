package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package of the module under
// analysis. Test files (_test.go) are excluded: the analyzers guard
// production invariants, and several of them (ctxflow, nakedclock)
// explicitly exempt test code.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the directory the files were read from.
	Dir  string
	Fset *token.FileSet
	// Files are the parsed sources, comments included (the ignore
	// directives and the // want harness both read them).
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Errs holds type-check errors. Analyzers still run over a
	// partially-checked package, but drivers should surface these: a
	// missing type turns every type-keyed check vacuous.
	Errs []error
}

// Name returns the package name.
func (p *Package) Name() string { return p.Types.Name() }

// Loader parses and type-checks the packages of one module, resolving
// intra-module imports itself and standard-library imports through the
// GOROOT source importer — no export data, no external tooling.
type Loader struct {
	Fset *token.FileSet

	root    string // module root directory (absolute)
	modPath string // module path from go.mod
	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
}

// FindModuleRoot walks up from dir to the nearest go.mod.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		d = parent
	}
}

// NewLoader builds a loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}
	return &Loader{
		Fset:    fset,
		root:    abs,
		modPath: modPath,
		std:     std,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// modulePath reads the module declaration from a go.mod.
func modulePath(gomod string) (string, error) {
	raw, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}

// LoadAll loads every package under the module root, skipping hidden
// directories and testdata trees (testdata packages deliberately
// violate the invariants; the // want harness loads them explicitly).
// Packages are returned in deterministic (path-sorted) order.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			pd := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != pd {
				dirs = append(dirs, pd)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, d := range dirs {
		p, err := l.LoadDir(d)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadDir loads the single package in dir.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module %s", dir, l.root)
	}
	path := l.modPath
	if rel != "." {
		path = l.modPath + "/" + filepath.ToSlash(rel)
	}
	return l.load(path, abs)
}

// load parses and type-checks one package directory, memoized by
// import path. Intra-module imports recurse through the loader's own
// ImportFrom, so dependency order takes care of itself.
func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	for _, f := range files[1:] {
		if f.Name.Name != files[0].Name.Name {
			return nil, fmt.Errorf("lint: %s mixes packages %s and %s", dir, files[0].Name.Name, f.Name.Name)
		}
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var errs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	p := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info, Errs: errs}
	l.pkgs[path] = p
	return p, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

// ImportFrom resolves module-internal imports through the loader and
// everything else (the standard library — go.mod declares nothing
// external) through the GOROOT source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		p, err := l.load(path, filepath.Join(l.root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if len(p.Errs) > 0 {
			return nil, fmt.Errorf("lint: %s: %v", path, p.Errs[0])
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}
