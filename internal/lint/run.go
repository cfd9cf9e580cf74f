package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// DirectiveAnalyzer names the pseudo-analyzer that reports problems
// with //lint:ignore directives themselves (malformed, unknown
// analyzer, unused). Directive problems cannot be ignored.
const DirectiveAnalyzer = "directive"

// directive is one parsed //lint:ignore comment.
type directive struct {
	analyzer string
	reason   string
	pos      token.Position
	used     bool
	bad      string // non-empty: the problem to report instead of honoring it
}

// parseDirectives extracts //lint:ignore directives from a package's
// comments. The expected form is
//
//	//lint:ignore <analyzer> <reason>
//
// placed either at the end of the offending line or on its own line
// directly above it. The reason is mandatory: an unexplained
// suppression is indistinguishable from a silenced bug, so the runner
// reports directives without one instead of honoring them.
func parseDirectives(pkgs []*Package, known map[string]bool) []*directive {
	var dirs []*directive
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
					if !ok {
						continue
					}
					d := &directive{pos: pkg.Fset.Position(c.Pos())}
					fields := strings.Fields(text)
					switch {
					case len(fields) == 0:
						d.bad = "malformed //lint:ignore: want `//lint:ignore <analyzer> <reason>`"
					case len(fields) == 1:
						d.bad = "//lint:ignore " + fields[0] + " is missing its reason"
					case !known[fields[0]]:
						d.bad = "//lint:ignore names unknown analyzer \"" + fields[0] + "\""
					default:
						d.analyzer = fields[0]
						d.reason = strings.Join(fields[1:], " ")
					}
					dirs = append(dirs, d)
				}
			}
		}
	}
	return dirs
}

// ApplyIgnores filters diags through the packages' //lint:ignore
// directives: a directive suppresses a matching analyzer's diagnostics
// on its own line and on the line below (the two supported
// placements). It returns the surviving diagnostics plus one
// DirectiveAnalyzer diagnostic per malformed or unknown directive and,
// when reportUnused is set, per unused one — a stale ignore outlives
// the violation it excused, and leaving it would mask the next one.
// Only a run of every analyzer can tell a stale directive apart, so
// reportUnused belongs to whole-suite runs.
func ApplyIgnores(pkgs []*Package, diags []Diagnostic, reportUnused bool) []Diagnostic {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	dirs := parseDirectives(pkgs, known)
	byLine := make(map[string][]*directive)
	for _, d := range dirs {
		if d.bad != "" {
			continue
		}
		for _, line := range []int{d.pos.Line, d.pos.Line + 1} {
			key := d.pos.Filename + "\x00" + strconv.Itoa(line) + "\x00" + d.analyzer
			byLine[key] = append(byLine[key], d)
		}
	}
	var kept []Diagnostic
	for _, dg := range diags {
		key := dg.Pos.Filename + "\x00" + strconv.Itoa(dg.Pos.Line) + "\x00" + dg.Analyzer
		if ds := byLine[key]; len(ds) > 0 {
			for _, d := range ds {
				d.used = true
			}
			continue
		}
		kept = append(kept, dg)
	}
	for _, d := range dirs {
		switch {
		case d.bad != "":
			kept = append(kept, Diagnostic{Analyzer: DirectiveAnalyzer, Pos: d.pos, Message: d.bad})
		case !d.used && reportUnused:
			kept = append(kept, Diagnostic{Analyzer: DirectiveAnalyzer, Pos: d.pos,
				Message: "unused //lint:ignore " + d.analyzer + " directive: nothing to suppress here — delete it"})
		}
	}
	return kept
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// enclosingFuncName returns the name of the innermost function
// declaration containing pos ("" when none, e.g. package-level
// declarations). Shared by analyzers that exempt helper or wrapper
// functions by name.
func enclosingFuncName(f *ast.File, pos token.Pos) string {
	name := ""
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if fd.Body.Pos() <= pos && pos < fd.Body.End() {
			name = fd.Name.Name
		}
	}
	return name
}
