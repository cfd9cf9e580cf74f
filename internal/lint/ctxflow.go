package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Ctxflow guards the ctx-threaded tracing and cancellation chain
// (PRs 3 and 7): the request context flows handler → session →
// solver → WAL, carrying the trace (span attribution) and the
// deadline (request timeouts, client disconnects). Passing
// context.Background() or context.TODO() into that chain severs both
// silently — the solve still works, it just becomes uncancellable and
// invisible to the flight recorder.
//
// Flagged: context.Background()/context.TODO() as an argument to a
// callee whose name marks it part of the chain — a *Ctx suffix (the
// repo's convention for ctx-threaded variants: SolveCtx,
// CheckFeasibleCtx) or an *Ingest suffix (Ingest, applyIngest).
// Exempt: package main (the process root owns the base context),
// test files (not loaded at all), and the no-ctx convenience wrapper
// pattern — a function F whose body forwards to FCtx is the one
// documented place Background may originate. Anything else detached
// by design states its reason with //lint:ignore ctxflow.
var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc:  "flags context.Background()/TODO() fed to ctx-threaded callees (severs tracing and timeouts)",
	Run:  runCtxflow,
}

func runCtxflow(pass *Pass) {
	if pass.Pkg.Name() == "main" {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeName(call)
			if !ctxThreadedCallee(callee) {
				return true
			}
			for _, arg := range call.Args {
				name := severingCtx(pass, arg)
				if name == "" {
					continue
				}
				if enclosingFuncName(f, call.Pos())+"Ctx" == callee {
					continue // the documented no-ctx convenience wrapper
				}
				hint := "thread the caller's ctx"
				if base, ok := strings.CutSuffix(callee, "Ctx"); ok {
					hint += " (or wrap as the " + base + "/" + callee + " convenience pattern)"
				}
				pass.Reportf(arg.Pos(),
					"context.%s() passed to %s severs tracing and timeouts; %s", name, callee, hint)
			}
			return true
		})
	}
}

// ctxThreadedCallee reports whether a callee name marks the
// ctx-threaded chain.
func ctxThreadedCallee(name string) bool {
	return name != "" && (strings.HasSuffix(name, "Ctx") || strings.HasSuffix(name, "Ingest"))
}

// calleeName extracts the called function or method name.
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// severingCtx returns "Background" or "TODO" when arg is a direct call
// to the corresponding context constructor, "" otherwise.
func severingCtx(pass *Pass, arg ast.Expr) string {
	call, ok := arg.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name()
	}
	return ""
}
