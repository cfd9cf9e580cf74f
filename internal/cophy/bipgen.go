package cophy

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/inum"
	"repro/internal/lagrange"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/workload"
)

// Instance bundles one index-tuning problem: the workload, the
// candidate set S, the INUM cache providing the linearly composable
// cost function, and the baseline configuration X0 (the clustered
// primary-key indexes that are always present, cost nothing and do not
// count against the storage budget).
type Instance struct {
	Cat      *catalog.Catalog
	Eng      *engine.Engine
	Inum     *inum.Cache
	Workload *workload.Workload
	S        []*catalog.Index
	Baseline *engine.Config
	// Workers bounds BuildModel's worker pool (0 = GOMAXPROCS). Tests
	// raise it above the core count to exercise the concurrent paths.
	Workers int
}

// BuildModel implements BIPGen: it compiles the instance into the
// structured BIP of Theorem 1. Per query q and template plan k it
// emits one choice with fixed cost β_qk whose slots carry one option
// per compatible, undominated candidate (cost γ_qkia), plus the I∅
// option priced as the best always-available access (heap scan or
// baseline clustered index). Candidate update-maintenance costs become
// the z_a objective coefficients, base-tuple update costs the constant
// term. The model carries no budget or side row.
//
// It is the build from empty compiled state; a session's re-solve runs
// the same function, compiled.model, over the state its last build
// left.
func BuildModel(inst *Instance) (*lagrange.Model, error) {
	return new(compiled).model(context.Background(), inst, NoConstraints())
}

// compiled is the weight-free part of a built problem, which a session
// keeps between solves: the dense γ matrix over (statements, candidates)
// and the block layout derived from each of its slabs. It is a pure
// function of (statements, candidate list, baseline, dominance mask), so
// it stays valid whatever becomes of the solve it was built for. The
// zero value is the empty state.
type compiled struct {
	mat inum.CostMatrix
	// layouts holds, per slab of mat, the block layout built from it by
	// buildChoices. Every block of the slab's shape class shares it, in
	// every model assembled since; the solver reads it in place.
	layouts map[*inum.QueryMatrix]*lagrange.Layout
	// mask is the dominance mask the layouts were built under,
	// positional over mat.S, and maskKey what it was computed from.
	mask    []bool
	maskKey maskKey
}

// model brings the compiled state to the instance and assembles its
// model under the constraint set cons: the γ values come from the dense
// CostMatrix, updated for the statements and candidates the state has
// not seen; the blocks and cons's rows and caps are laid down next, so
// that the dominance mask (dominatedMask, reused while its inputs stay
// the same) sees every row; layouts are
// derived, under the mask, for the slabs that update compiled and for
// the kept slabs listing a candidate whose mask bit flipped —
// independent by Theorem 1, built by a worker pool into preallocated
// positions — and every block gets its slab's shared layout. The
// emitted model is bit-identical to a serial build from nothing.
// BuildTime in the advisor's breakdown measures this function; its
// cheapness relative to ILP's configuration enumeration is the heart of
// Figure 5.
func (cs *compiled) model(ctx context.Context, inst *Instance, cons Constraints) (*lagrange.Model, error) {
	m := lagrange.NewModel(len(inst.S))
	for i, ix := range inst.S {
		t := inst.Cat.Table(ix.Table)
		if t == nil {
			return nil, fmt.Errorf("cophy: candidate %s references unknown table", ix.ID())
		}
		m.Size[i] = float64(ix.Bytes(t))
	}

	// Update costs: FixedCost[a] = Σ_u f_u·ucost(a,u); Const gathers
	// the index-independent base-tuple costs. The candidate axis is
	// parallelized (each worker owns disjoint FixedCost entries and
	// sums statements in workload order, keeping the result exact and
	// deterministic); the constant term is one cheap serial pass.
	updates := inst.Workload.Updates()
	if len(updates) > 0 {
		for _, s := range updates {
			m.Const += s.Weight * inst.Eng.BaseUpdateCost(s.Update)
		}
		par.For(len(inst.S), inst.Workers, func(i int) {
			ix := inst.S[i]
			var sum float64
			for _, s := range updates {
				if c := inst.Eng.UpdateCost(s.Update, ix); c > 0 {
					sum += s.Weight * c
				}
			}
			m.FixedCost[i] = sum
		})
	}

	inst.Inum.UpdateMatrix(&cs.mat, inst.Workload, inst.S, inst.Baseline, inst.Workers)

	stmts := inst.Workload.Queries()
	m.Blocks = make([]lagrange.Block, len(stmts))
	slabs := make([]*inum.QueryMatrix, len(stmts))
	var distinct []*inum.QueryMatrix
	seen := make(map[*inum.QueryMatrix]bool, cs.mat.Len())
	for i, s := range stmts {
		m.Blocks[i] = lagrange.Block{ID: s.Query.ID, Weight: s.Weight}
		slabs[i] = cs.mat.Query(s.Query)
		if !seen[slabs[i]] {
			seen[slabs[i]] = true
			distinct = append(distinct, slabs[i])
		}
	}
	if err := applyConstraints(inst, m, cons); err != nil {
		return nil, err
	}
	mask, key := cs.mask, newMaskKey(m, distinct)
	if mask == nil || !key.equal(&cs.maskKey) {
		stop := obs.TraceFrom(ctx).StartSpan("cophy.prune")
		mask = dominatedMask(&key, inst.Workers)
		stop()
	}

	// Carry over the layouts of the slabs that survived the update and
	// list no candidate whose mask bit flipped (the rest go with the old
	// table), and derive the missing ones.
	flipped := flips(cs.mask, mask)
	layouts := make(map[*inum.QueryMatrix]*lagrange.Layout, len(distinct))
	var fresh []*inum.QueryMatrix
	for _, qm := range distinct {
		l, kept := cs.layouts[qm]
		if kept && !listsAny(qm, flipped) {
			layouts[qm] = l
		} else {
			fresh = append(fresh, qm)
		}
	}
	built := make([]*lagrange.Layout, len(fresh))
	errs := make([]error, len(fresh))
	par.For(len(fresh), inst.Workers, func(i int) { built[i], errs[i] = buildChoices(fresh[i], mask) })
	for i, qm := range fresh {
		if errs[i] != nil {
			id := stmts[slices.Index(slabs, qm)].Query.ID
			if len(qm.Internal) == 0 {
				return nil, fmt.Errorf("cophy: no templates for %s", id)
			}
			return nil, fmt.Errorf("cophy: no feasible choice for %s: %w", id, errs[i])
		}
		layouts[qm] = built[i]
	}
	cs.layouts, cs.mask, cs.maskKey = layouts, mask, key

	for i := range stmts {
		m.Blocks[i].SetLayout(layouts[slabs[i]])
	}
	return m, nil
}

// flips returns the positions whose mask bit differs between the mask
// the kept choices were built under and the new one, or nil when none
// does. A slab is kept only while the old candidates keep their
// positions, and it lists old positions only.
func flips(old, mask []bool) []bool {
	var flipped []bool
	for i := range min(len(old), len(mask)) {
		if old[i] != mask[i] {
			if flipped == nil {
				flipped = make([]bool, len(old))
			}
			flipped[i] = true
		}
	}
	return flipped
}

// listsAny reports whether the slab lists a flipped candidate.
func listsAny(qm *inum.QueryMatrix, flipped []bool) bool {
	if flipped == nil {
		return false
	}
	for _, c := range qm.Compat {
		if flipped[c] {
			return true
		}
	}
	return false
}

// buildChoices emits one query's block layout from its dense γ slab:
// one options array, one slots array and one choices array per
// statement, sized up front so no append moves them. A slot with no
// option under mask is dead, and a template using one is infeasible and
// emits no choice. Each live distinct slot of the slab is laid out once,
// on its first use, and every later use gets that very window. Every
// Slot and every Choice.Slots is a window with cap == len: the layout is
// shared by every model assembled since, so an append through one must
// copy, not write into its neighbour. A candidate marked in mask gets no
// option. NewLayout sorts each slot by (γ, index); the slab lists only
// candidates that beat the free access, so I∅ ends last.
func buildChoices(qm *inum.QueryMatrix, mask []bool) (*lagrange.Layout, error) {
	offered := func(c int32) bool { return !mask[c] }
	dead := make([]bool, len(qm.SlotFree))
	for d := range qm.SlotFree {
		dead[d] = math.IsInf(qm.SlotFree[d], 1) && !slices.ContainsFunc(qm.Compat[qm.SlotOff[d]:qm.SlotOff[d+1]], offered)
	}
	opts := make([]lagrange.Option, 0, len(qm.SlotFree)+len(qm.Compat))
	slots := make([]lagrange.Slot, 0, len(qm.Refs))
	choices := make([]lagrange.Choice, 0, len(qm.Internal))
	// win[d] is the window of distinct slot d once laid out.
	win := make([]lagrange.Slot, len(qm.SlotFree))
	for ti, fixed := range qm.Internal {
		refs := qm.Refs[qm.TmplOff[ti]:qm.TmplOff[ti+1]]
		if slices.ContainsFunc(refs, func(d int32) bool { return dead[d] }) {
			continue
		}
		slot0 := len(slots)
		for _, d := range refs {
			if win[d] == nil {
				first := len(opts)
				if free := qm.SlotFree[d]; !math.IsInf(free, 1) {
					opts = append(opts, lagrange.Option{Index: lagrange.NoIndex, Cost: free})
				}
				// The slab holds only the candidates that beat the free access.
				for k := qm.SlotOff[d]; k < qm.SlotOff[d+1]; k++ {
					if !mask[qm.Compat[k]] {
						opts = append(opts, lagrange.Option{Index: qm.Compat[k], Cost: qm.Gamma[k]})
					}
				}
				win[d] = opts[first:len(opts):len(opts)]
			}
			slots = append(slots, win[d])
		}
		choices = append(choices, lagrange.Choice{Fixed: fixed, Slots: slots[slot0:len(slots):len(slots)]})
	}
	return lagrange.NewLayout(choices)
}

// Timings is the per-phase breakdown the paper's Figures 5 and 10
// report: INUM cache population, BIP construction and solving.
type Timings struct {
	INUM  time.Duration
	Build time.Duration
	Solve time.Duration
}

// Total returns the end-to-end advisor time.
func (t Timings) Total() time.Duration { return t.INUM + t.Build + t.Solve }
