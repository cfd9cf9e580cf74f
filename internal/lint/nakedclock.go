package lint

import (
	"go/ast"
	"go/types"
)

// Nakedclock guards the injected-clock seam: packages that declare one
// — a field or package-level variable of type func() time.Time, like
// obs's clock — made real time injectable so tests can drive it
// virtually. A naked time.Now() or time.Since() elsewhere in such a
// package reads the wall clock behind the seam's back: the code works,
// but the next clock-driven test flakes or sleeps.
//
// Only calls are flagged. Referencing time.Now as a value — the seam's
// production default (`now: time.Now`) — is the sanctioned idiom.
// Packages without a seam are exempt: ordinary wall-clock timing
// (solver elapsed time, benchmark walls) is not the concern.
var Nakedclock = &Analyzer{
	Name: "nakedclock",
	Doc:  "flags naked time.Now/time.Since calls in packages that inject their clock through a func() time.Time seam",
	Run:  runNakedclock,
}

func runNakedclock(pass *Pass) {
	seam := findClockSeam(pass)
	if seam == "" {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if fn.Name() == "Now" || fn.Name() == "Since" {
				pass.Reportf(call.Pos(),
					"package %s injects its clock (seam %q); call the seam instead of time.%s so clock-driven tests stay virtual",
					pass.Pkg.Name(), seam, fn.Name())
			}
			return true
		})
	}
}

// findClockSeam returns the name of the first clock seam declared in
// the package — a struct field or package-level var whose type is
// func() time.Time — or "".
func findClockSeam(pass *Pass) string {
	seam := ""
	for _, f := range pass.Pkg.Files {
		if seam != "" {
			break
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if seam != "" {
				return false
			}
			switch d := n.(type) {
			case *ast.StructType:
				for _, field := range d.Fields.List {
					if len(field.Names) > 0 && isClockFunc(pass.TypeOf(field.Type)) {
						seam = field.Names[0].Name
						return false
					}
				}
			case *ast.FuncDecl:
				return false // vars inside functions are locals, not seams
			case *ast.ValueSpec:
				for _, name := range d.Names {
					if obj := pass.Pkg.Info.Defs[name]; obj != nil && isClockFunc(obj.Type()) {
						seam = name.Name
						return false
					}
				}
			}
			return true
		})
	}
	return seam
}

// isClockFunc reports whether t is func() time.Time.
func isClockFunc(t types.Type) bool {
	sig, ok := t.(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	named, ok := sig.Results().At(0).Type().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Time" && obj.Pkg() != nil && obj.Pkg().Path() == "time"
}
