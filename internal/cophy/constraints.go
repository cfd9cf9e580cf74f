package cophy

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/lagrange"
	"repro/internal/lp"
)

// Constraints is the compiled-from-DBA-input constraint set C of the
// tuning problem: an optional hard storage budget plus items from the
// constraint language of Appendix E. Soft constraints are handled
// separately by the Pareto machinery (SoftStorageSweep).
type Constraints struct {
	// BudgetBytes is the hard storage budget in bytes; negative means
	// unconstrained. The paper expresses it as a fraction M of the
	// data size (§5.1); use FractionOfData to convert.
	BudgetBytes float64
	// Items holds the remaining constraint-language statements.
	Items []Item
}

// NoConstraints returns an empty, always-feasible constraint set.
func NoConstraints() Constraints { return Constraints{BudgetBytes: -1} }

// FractionOfData returns a Constraints with the storage budget set to
// frac × (total data size), the form used throughout the evaluation.
func FractionOfData(cat *catalog.Catalog, frac float64) Constraints {
	return Constraints{BudgetBytes: frac * float64(cat.TotalBytes())}
}

// Item is one statement of the constraint language. Implementations
// compile themselves into linear rows over the z variables or into
// per-statement cost caps.
type Item interface {
	compile(ctx *compileCtx) error
}

// compileCtx carries the model being extended.
type compileCtx struct {
	inst  *Instance
	model *lagrange.Model
}

// IndexFilter selects a subset S_c ⊆ S of the candidates (Appendix
// E.1). Nil filters match everything.
type IndexFilter func(*catalog.Index) bool

// OnTable matches indexes of one table.
func OnTable(name string) IndexFilter {
	return func(ix *catalog.Index) bool { return ix.Table == name }
}

// MinKeyCols matches indexes whose key has at least n columns.
func MinKeyCols(n int) IndexFilter {
	return func(ix *catalog.Index) bool { return len(ix.Key) >= n }
}

// HasColumn matches indexes storing the column as key or include.
func HasColumn(col string) IndexFilter {
	return func(ix *catalog.Index) bool {
		for _, k := range ix.Key {
			if k == col {
				return true
			}
		}
		for _, c := range ix.Include {
			if c == col {
				return true
			}
		}
		return false
	}
}

// Clustered matches clustered indexes.
func Clustered() IndexFilter {
	return func(ix *catalog.Index) bool { return ix.Clustered }
}

// And conjoins filters.
func And(fs ...IndexFilter) IndexFilter {
	return func(ix *catalog.Index) bool {
		for _, f := range fs {
			if f != nil && !f(ix) {
				return false
			}
		}
		return true
	}
}

// Count is the index-constraint form of Appendix E.1: Σ_{a∈S_c} w_a·z_a
// ⋈ V. With nil Weight every index counts 1 (cardinality constraints);
// with Weight = size it becomes a size constraint on the subset.
type Count struct {
	// Name labels the constraint in infeasibility reports.
	Name string
	// Filter selects S_c (nil = all candidates).
	Filter IndexFilter
	// Weight gives w_a (nil = 1).
	Weight func(*catalog.Index) float64
	// Sense and V complete the comparison.
	Sense lp.Sense
	V     float64
}

func (c Count) compile(ctx *compileCtx) error {
	var terms []lagrange.Term
	for i, ix := range ctx.inst.S {
		if c.Filter != nil && !c.Filter(ix) {
			continue
		}
		w := 1.0
		if c.Weight != nil {
			w = c.Weight(ix)
		}
		terms = append(terms, lagrange.Term{Index: int32(i), Coef: w})
	}
	if len(terms) == 0 {
		// Constraint over an empty subset: 0 ⋈ V. Reject impossible
		// forms eagerly so the DBA learns immediately.
		viol := false
		switch c.Sense {
		case lp.GE:
			viol = c.V > 0
		case lp.EQ:
			viol = c.V != 0
		}
		if viol {
			return fmt.Errorf("cophy: constraint %q selects no candidates yet requires %v", c.Name, c.V)
		}
		return nil
	}
	ctx.model.Extra = append(ctx.model.Extra, lagrange.Constraint{
		Terms: terms, Sense: c.Sense, RHS: c.V, Name: c.Name,
	})
	return nil
}

// ClusteredPerTable is the implicit generator constraint of Appendix
// E.3: every table supports at most one clustered index. It compiles
// one row per table that has clustered candidates.
type ClusteredPerTable struct{}

func (ClusteredPerTable) compile(ctx *compileCtx) error {
	byTable := map[string][]lagrange.Term{}
	for i, ix := range ctx.inst.S {
		if ix.Clustered {
			byTable[ix.Table] = append(byTable[ix.Table], lagrange.Term{Index: int32(i), Coef: 1})
		}
	}
	for table, terms := range byTable {
		ctx.model.Extra = append(ctx.model.Extra, lagrange.Constraint{
			Terms: terms, Sense: lp.LE, RHS: 1,
			Name: "clustered-per-table:" + table,
		})
	}
	return nil
}

// QueryCost is the query-cost constraint of Appendix E.2 and its
// generator form: ASSERT cost(q, X*) ≤ Factor · cost(q, X0) for the
// named statements (empty IDs = FOR q IN W, the generator). X0 is the
// instance's baseline configuration.
type QueryCost struct {
	// Factor scales the baseline cost (0.75 asserts a 25% speedup).
	Factor float64
	// IDs names the statements; empty applies to every query.
	IDs []string
}

func (qc QueryCost) compile(ctx *compileCtx) error {
	want := map[string]bool{}
	for _, id := range qc.IDs {
		want[id] = true
	}
	queries := ctx.inst.Workload.Queries()
	if len(queries) != len(ctx.model.Blocks) {
		return fmt.Errorf("cophy: block/query count mismatch (%d vs %d)", len(ctx.model.Blocks), len(queries))
	}
	for bi, s := range queries {
		if len(want) > 0 && !want[s.Query.ID] {
			continue
		}
		base, err := ctx.inst.Inum.Cost(s.Query, ctx.inst.Baseline)
		if err != nil {
			return err
		}
		cap := qc.Factor * base
		blk := &ctx.model.Blocks[bi]
		if blk.CostCap == 0 || cap < blk.CostCap {
			blk.CostCap = cap
		}
	}
	return nil
}

// applyConstraints compiles the constraint set into the model.
func applyConstraints(inst *Instance, m *lagrange.Model, cons Constraints) error {
	m.Budget = cons.BudgetBytes
	ctx := &compileCtx{inst: inst, model: m}
	for _, item := range cons.Items {
		if err := item.compile(ctx); err != nil {
			return err
		}
	}
	return nil
}
