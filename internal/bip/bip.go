// Package bip implements an exact best-bound branch and bound for
// binary integer programs over the lp package's simplex. It has two
// jobs. It is the fallback of the feasibility screen of Figure 3 line
// 1 (lagrange's CheckFeasibleCtx): when the all-zero selection
// violates a side constraint, it decides whether any binary point of
// the small z polytope exists. And it is the Theorem 1 oracle: the
// explicit BIP of a structured model, searched to exhaustion, must
// reach the Lagrangian solver's optimum. The paper's other solver
// services (§4), feedback on the distance to the optimum and MIP
// starts, belong to the Lagrangian solver (lagrange.Options).
package bip

import (
	"context"
	"math"
	"sort"

	"repro/internal/lp"
	"repro/internal/obs"
)

// Model is a binary integer program: an LP plus the set of variables
// restricted to {0,1}.
type Model struct {
	// P is the underlying linear program. Binary variables should have
	// bounds within [0,1].
	P *lp.Problem
	// Binaries lists the variable indices restricted to {0,1}.
	Binaries []int
}

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means the tree was exhausted with an incumbent: it is
	// the optimum.
	Optimal Status = iota
	// Feasible means the search stopped before the tree was exhausted
	// (node cap, cancellation, a node LP's pivot budget); an incumbent
	// may or may not exist.
	Feasible
	// Infeasible means the tree was exhausted without an incumbent: no
	// binary assignment satisfies the constraints.
	Infeasible
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	default:
		return "unknown"
	}
}

// Options control the search.
type Options struct {
	// MaxNodes caps explored nodes (0 means unlimited).
	MaxNodes int
	// Ctx, when non-nil, serves two purposes: cancellation stops the
	// search at the next node boundary (the incumbent found so far is
	// returned, like a node cap), and a request trace riding in it
	// (obs.TraceFrom) receives the node LPs' phase timings, so a
	// /recommend decomposes down to simplex phases even through the
	// branch-and-bound layer.
	Ctx context.Context
}

// Result is the outcome of a solve.
type Result struct {
	Status Status
	// X is the incumbent assignment (nil without one).
	X []float64
	// Obj is the incumbent objective (+Inf without one).
	Obj float64
	// Nodes is the number of explored nodes.
	Nodes int
}

// intTol is the integrality tolerance.
const intTol = 1e-6

type node struct {
	fixed map[int]float64
	bound float64 // parent LP bound (lower bound on subtree)
	// basis is the parent node's optimal LP basis. The child LP
	// differs from the parent's by a single variable bound, so its
	// re-solve warm-starts there and pivots from a near-optimal point
	// instead of running Phase 1 from scratch.
	basis *lp.Basis
}

// Solve runs best-bound branch and bound. The status is Optimal or
// Infeasible only when the tree is exhausted.
func Solve(m Model, opts Options) Result {
	var (
		incumbent []float64
		incObj    = math.Inf(1)
		nodes     int
		budgetOut bool
	)

	// Priority queue ordered by node bound (best-first).
	queue := []*node{{fixed: map[int]float64{}, bound: math.Inf(-1)}}

	tr := obs.TraceFrom(opts.Ctx)
	for len(queue) > 0 {
		if opts.MaxNodes > 0 && nodes >= opts.MaxNodes {
			break
		}
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			break // cancelled: return the incumbent found so far
		}
		// Pop the best-bound node.
		sort.Slice(queue, func(i, j int) bool { return queue[i].bound < queue[j].bound })
		nd := queue[0]
		queue = queue[1:]

		if nd.bound >= incObj-1e-12 {
			continue // dominated by incumbent
		}
		nodes++

		// Solve the node LP, warm-starting from the parent's basis.
		p := m.P.Clone()
		for j, v := range nd.fixed {
			p.SetBounds(j, v, v)
		}
		sol := lp.SolveFrom(p, nd.basis)
		tr.Add("lp.phase1", sol.Phase1Dur)
		tr.Add("lp.phase2", sol.Phase2Dur)
		if sol.Status == lp.Infeasible {
			continue
		}
		if sol.Status == lp.Unbounded {
			// A bounded BIP over binaries cannot be unbounded unless
			// continuous variables are; treat conservatively.
			return Result{Status: Feasible, X: incumbent, Obj: incObj, Nodes: nodes}
		}
		if sol.Status == lp.IterLimit || sol.X == nil {
			// The node LP exhausted its pivot budget: its bound and
			// point are unusable (X may be nil). Stop the search with
			// what has been found so far rather than prune unsoundly.
			budgetOut = true
			break
		}
		if sol.Obj >= incObj-1e-12 {
			continue
		}

		// Integral LP solution: new incumbent.
		frac := mostFractional(m, sol.X)
		if frac < 0 {
			if sol.Obj < incObj {
				incObj = sol.Obj
				incumbent = append([]float64(nil), sol.X...)
			}
			continue
		}

		// Rounding heuristic: snap binaries and test feasibility.
		if incumbent == nil || sol.Obj < incObj {
			rounded := append([]float64(nil), sol.X...)
			for _, j := range m.Binaries {
				rounded[j] = math.Round(rounded[j])
			}
			if m.P.Feasible(rounded, 1e-6) {
				if obj := m.P.Objective(rounded); obj < incObj {
					incObj = obj
					incumbent = rounded
				}
			}
		}

		// Branch on the most fractional binary.
		for _, v := range []float64{0, 1} {
			child := &node{fixed: make(map[int]float64, len(nd.fixed)+1), bound: sol.Obj, basis: sol.Basis}
			for k, val := range nd.fixed {
				child.fixed[k] = val
			}
			child.fixed[frac] = v
			queue = append(queue, child)
		}
	}

	switch {
	case len(queue) > 0 || budgetOut:
		// Stopped early (node cap, cancellation, pivot budget): without
		// an incumbent, infeasibility was NOT proven.
		return Result{Status: Feasible, X: incumbent, Obj: incObj, Nodes: nodes}
	case incumbent == nil:
		return Result{Status: Infeasible, Obj: incObj, Nodes: nodes}
	default:
		return Result{Status: Optimal, X: incumbent, Obj: incObj, Nodes: nodes}
	}
}

// mostFractional returns the binary variable farthest from
// integrality, or −1 if all are integral.
func mostFractional(m Model, x []float64) int {
	best, bestDist := -1, intTol
	for _, j := range m.Binaries {
		d := math.Abs(x[j] - math.Round(x[j]))
		if d > bestDist {
			bestDist = d
			best = j
		}
	}
	return best
}
