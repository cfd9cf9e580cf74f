// Package bip implements a branch-and-bound solver for binary integer
// programs over the lp package's simplex. Together with package lp it
// provides the three "off-the-shelf solver" services the CoPhy paper
// relies on (§4): a fast feasibility check for the hard constraints, a
// bound on the distance between the incumbent and the optimum
// (continuous feedback enabling early termination), and MIP starts
// that let re-tuning reuse prior work.
package bip

import (
	"context"
	"math"
	"sort"
	"time"

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
	// Optimal means the incumbent was proved optimal (gap 0 within
	// tolerance).
	Optimal Status = iota
	// Feasible means an incumbent exists but the search stopped early
	// (gap tolerance, node or time limit).
	Feasible
	// Infeasible means no binary assignment satisfies the constraints.
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

// Event is one progress report: the solver's current bounds.
type Event struct {
	// Elapsed is the time since Solve started.
	Elapsed time.Duration
	// Lower is the best proven lower bound on the optimum.
	Lower float64
	// Upper is the incumbent objective (+Inf before one is found).
	Upper float64
	// Gap is (Upper − Lower) / max(|Upper|, ε).
	Gap float64
	// Nodes is the number of explored nodes.
	Nodes int
}

// Options control the search.
type Options struct {
	// GapTol stops the search once the relative gap falls below it.
	// The paper's default tuning is 5% (§5.1).
	GapTol float64
	// MaxNodes caps explored nodes (0 means unlimited).
	MaxNodes int
	// TimeLimit caps wall time (0 means unlimited).
	TimeLimit time.Duration
	// Start, if non-nil, is a MIP start: a full variable assignment
	// used as the initial incumbent when feasible. Warm starts are how
	// CoPhy makes interactive re-tuning an order of magnitude cheaper
	// (§4.2, Figure 6b).
	Start []float64
	// Progress, if non-nil, receives bound-improvement events — the
	// feedback channel behind CoPhy's early-termination feature.
	Progress func(Event)
	// Ctx, when non-nil, serves two purposes: cancellation stops the
	// search at the next node boundary (the incumbent and proven bounds
	// are returned, like a time limit), and a request trace riding in it
	// (obs.TraceFrom) receives the node LPs' phase timings, so a
	// /recommend decomposes down to simplex phases even through the
	// branch-and-bound layer.
	Ctx context.Context
}

// Result is the outcome of a solve.
type Result struct {
	Status Status
	// X is the incumbent assignment (nil when Infeasible).
	X []float64
	// Obj is the incumbent objective.
	Obj float64
	// Lower is the final proven lower bound.
	Lower float64
	// Gap is the final relative gap.
	Gap float64
	// Nodes is the number of explored nodes.
	Nodes int
}

// intTol is the integrality tolerance.
const intTol = 1e-6

type node struct {
	fixed map[int]float64
	bound float64 // parent LP bound (lower bound on subtree)
	depth int
	// basis is the parent node's optimal LP basis. The child LP
	// differs from the parent's by a single variable bound, so its
	// re-solve warm-starts there and pivots from a near-optimal point
	// instead of running Phase 1 from scratch.
	basis *lp.Basis
}

// Solve runs best-bound branch and bound.
func Solve(m Model, opts Options) Result {
	start := time.Now()
	var (
		incumbent []float64
		incObj    = math.Inf(1)
		nodes     int
		budgetOut bool
	)
	report := func(lower float64) {
		if opts.Progress == nil {
			return
		}
		opts.Progress(Event{
			Elapsed: time.Since(start),
			Lower:   lower,
			Upper:   incObj,
			Gap:     relGap(incObj, lower),
			Nodes:   nodes,
		})
	}

	// Seed the incumbent from the MIP start if it is feasible and
	// integral on the binaries.
	if opts.Start != nil && len(opts.Start) == m.P.Cols() && m.P.Feasible(opts.Start, 1e-6) && integral(m, opts.Start) {
		incumbent = append([]float64(nil), opts.Start...)
		incObj = m.P.Objective(incumbent)
	}

	// Priority queue ordered by node bound (best-first).
	queue := []*node{{fixed: map[int]float64{}, bound: math.Inf(-1)}}
	globalLower := math.Inf(-1)

	tr := obs.TraceFrom(opts.Ctx)
	for len(queue) > 0 {
		if opts.MaxNodes > 0 && nodes >= opts.MaxNodes {
			break
		}
		if opts.TimeLimit > 0 && time.Since(start) > opts.TimeLimit {
			break
		}
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			break // cancelled: return the incumbent and proven bounds
		}
		// Pop the best-bound node.
		sort.Slice(queue, func(i, j int) bool { return queue[i].bound < queue[j].bound })
		nd := queue[0]
		queue = queue[1:]
		globalLower = nd.bound
		if len(queue) > 0 && queue[0].bound < globalLower {
			globalLower = queue[0].bound
		}

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
			return Result{Status: Feasible, X: incumbent, Obj: incObj, Lower: math.Inf(-1), Gap: math.Inf(1), Nodes: nodes}
		}
		if sol.Status == lp.IterLimit || sol.X == nil {
			// The node LP exhausted its pivot budget: its bound and
			// point are unusable (X may be nil). Stop the search with
			// what has been proven so far rather than prune unsoundly.
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
				report(globalLower)
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
					report(globalLower)
				}
			}
		}

		// Early termination at the requested gap.
		if opts.GapTol > 0 && relGap(incObj, globalLower) <= opts.GapTol {
			break
		}

		// Branch on the most fractional binary.
		for _, v := range []float64{0, 1} {
			child := &node{fixed: make(map[int]float64, len(nd.fixed)+1), bound: sol.Obj, depth: nd.depth + 1, basis: sol.Basis}
			for k, val := range nd.fixed {
				child.fixed[k] = val
			}
			child.fixed[frac] = v
			queue = append(queue, child)
		}
	}

	// Final lower bound: best remaining node bound, or the incumbent
	// when the tree is exhausted. A budget-interrupted node's subtree
	// was never explored: its bound (globalLower, set at pop) must
	// keep the reported lower honest.
	lower := incObj
	if len(queue) > 0 {
		lower = queue[0].bound
		for _, nd := range queue {
			if nd.bound < lower {
				lower = nd.bound
			}
		}
	} else if globalLower > lower {
		lower = globalLower
	}
	if budgetOut && globalLower < lower {
		lower = globalLower
	}
	if incumbent == nil {
		if len(queue) == 0 && !budgetOut {
			return Result{Status: Infeasible, Nodes: nodes, Gap: math.Inf(1), Lower: lower}
		}
		// No incumbent but the search stopped early (budget, limits):
		// infeasibility was NOT proven.
		return Result{Status: Feasible, Nodes: nodes, Gap: math.Inf(1), Lower: lower}
	}
	gap := relGap(incObj, lower)
	st := Feasible
	if (len(queue) == 0 && !budgetOut) || gap <= 1e-9 {
		st = Optimal
		if gap < 0 {
			gap = 0
		}
	}
	report(lower)
	return Result{Status: st, X: incumbent, Obj: incObj, Lower: lower, Gap: gap, Nodes: nodes}
}

// integral reports whether every binary is within tolerance of 0 or 1.
func integral(m Model, x []float64) bool {
	for _, j := range m.Binaries {
		if math.Abs(x[j]-math.Round(x[j])) > intTol {
			return false
		}
	}
	return true
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

// relGap returns the relative optimality gap between an upper and a
// lower bound.
func relGap(upper, lower float64) float64 {
	if math.IsInf(upper, 1) {
		return math.Inf(1)
	}
	den := math.Abs(upper)
	if den < 1e-9 {
		den = 1e-9
	}
	g := (upper - lower) / den
	if g < 0 {
		return 0
	}
	return g
}
