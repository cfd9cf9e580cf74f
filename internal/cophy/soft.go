package cophy

import (
	"context"
	"time"

	"repro/internal/catalog"
	"repro/internal/lagrange"
	"repro/internal/pareto"
	"repro/internal/workload"
)

// ParetoPoint is one solution of a soft-constrained tuning session:
// a configuration with its true workload cost and storage footprint.
type ParetoPoint struct {
	// Lambda is the scalarization weight that produced the point.
	Lambda float64
	// Cost is the (unscaled) INUM workload cost of the configuration.
	Cost float64
	// SizeBytes is the configuration's total index storage.
	SizeBytes float64
	// Indexes is the configuration.
	Indexes []*catalog.Index
	// SolveTime is the time spent solving this point's scalarized BIP.
	// The first point pays a cold solve; subsequent points reuse the
	// previous duals and incumbent (the ~4× reuse speed-up of
	// Figure 6c).
	SolveTime time.Duration
}

// scalarize builds the soft-constraint BIP B′ of §4.1: objective
// λ·cost(X,W) + (1−λ)·norm·(size(X) − M), with the hard budget
// removed. norm equates the units of the two objectives (cost per
// byte at the no-index operating point), so λ = 0.5 genuinely trades
// the two rather than letting raw byte counts drown the cost term.
func scalarize(base *lagrange.Model, lambda, targetBytes, norm float64) *lagrange.Model {
	m := lagrange.NewModel(base.NumIndexes)
	copy(m.Size, base.Size)
	for a := 0; a < base.NumIndexes; a++ {
		m.FixedCost[a] = lambda*base.FixedCost[a] + (1-lambda)*norm*base.Size[a]
	}
	m.Budget = -1
	m.Extra = base.Extra
	m.Const = lambda*base.Const - (1-lambda)*norm*targetBytes
	m.Blocks = make([]lagrange.Block, len(base.Blocks))
	for bi := range base.Blocks {
		m.Blocks[bi] = base.Blocks[bi]
		m.Blocks[bi].Weight = base.Blocks[bi].Weight * lambda
	}
	return m
}

// softSession holds shared state across the points of one sweep.
type softSession struct {
	ad     *Advisor
	inst   *Instance
	base   *lagrange.Model
	target float64
	norm   float64
	warm   lagrange.Dual
	start  []bool
	times  Timings
}

// solveAt solves the scalarized problem for one λ, reusing the
// previous point's duals and incumbent.
func (ss *softSession) solveAt(lambda float64) ParetoPoint {
	m := scalarize(ss.base, lambda, ss.target, ss.norm)
	t := time.Now()
	lr := lagrange.Solve(m, ss.ad.solverOptions(context.Background(), ss.ad.Opts.GapTol, ss.warm, ss.start))
	dt := time.Since(t)
	ss.warm = lr.Lambda
	ss.start = lr.Selected
	ss.times.Solve += dt

	p := ParetoPoint{Lambda: lambda, SolveTime: dt}
	if lr.Selected != nil {
		cost, _ := ss.base.Evaluate(lr.Selected)
		p.Cost = cost
		for a, on := range lr.Selected {
			if on {
				p.SizeBytes += ss.base.Size[a]
				p.Indexes = append(p.Indexes, ss.inst.S[a])
			}
		}
		catalog.SortIndexes(p.Indexes)
	}
	return p
}

// newSoftSession prepares the shared INUM cache and base model.
func (ad *Advisor) newSoftSession(w *workload.Workload, s []*catalog.Index, cons Constraints, targetBytes float64) (*softSession, error) {
	inst, base, times, err := ad.prepare(context.Background(), new(compiled), w, s, cons)
	if err != nil {
		return nil, err
	}
	base.Budget = -1 // the storage constraint is soft here
	// Normalization between cost and storage: the empty
	// configuration's workload cost per byte of data. This makes the
	// λ axis meaningful across schemas and scale factors.
	emptyCost, _ := base.Evaluate(make([]bool, base.NumIndexes))
	norm := emptyCost / float64(ad.Cat.TotalBytes())
	if norm <= 0 {
		norm = 1
	}
	return &softSession{
		ad: ad, inst: inst, base: base, target: targetBytes, norm: norm,
		times: times,
	}, nil
}

// SoftStorageSweep solves the soft storage-budget problem at the given
// λ values (Figure 6c uses {0, 0.25, 0.5, 0.75, 1}), sharing INUM and
// build work and warm-starting each point from the previous one. It
// returns one Pareto point per λ plus the shared timing breakdown.
func (ad *Advisor) SoftStorageSweep(w *workload.Workload, s []*catalog.Index, cons Constraints, targetBytes float64, lambdas []float64) ([]ParetoPoint, Timings, error) {
	ss, err := ad.newSoftSession(w, s, cons, targetBytes)
	if err != nil {
		return nil, Timings{}, err
	}
	var points []ParetoPoint
	for _, l := range lambdas {
		points = append(points, ss.solveAt(l))
	}
	return points, ss.times, nil
}

// SoftStorageChord explores the Pareto curve adaptively with the Chord
// algorithm, spending at most maxSolves scalarized solves and stopping
// when the curve is approximated within eps (Appendix D).
func (ad *Advisor) SoftStorageChord(w *workload.Workload, s []*catalog.Index, cons Constraints, targetBytes float64, eps float64, maxSolves int) ([]ParetoPoint, Timings, error) {
	ss, err := ad.newSoftSession(w, s, cons, targetBytes)
	if err != nil {
		return nil, Timings{}, err
	}
	byLambda := map[float64]ParetoPoint{}
	points := pareto.Chord(func(l float64) pareto.Point {
		p := ss.solveAt(l)
		byLambda[l] = p
		return pareto.Point{X: p.Cost, Y: p.SizeBytes}
	}, eps, maxSolves)
	out := make([]ParetoPoint, 0, len(points))
	for _, p := range points {
		out = append(out, byLambda[p.Lambda])
	}
	return out, ss.times, nil
}
