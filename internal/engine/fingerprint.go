package engine

import (
	"math"
	"strconv"
	"strings"

	"repro/internal/workload"
)

// CostModelVersion stamps the derivation semantics of this engine:
// bump it whenever a change to the cost model, the join DP, the
// template-extraction rules or the shape fingerprint's bytes can alter
// the templates derived for a query or the key they are stored under.
// Persisted plan payloads carry the stamp and are silently re-derived
// when it no longer matches.
const CostModelVersion = 2

// ShapeFingerprint canonically identifies everything the template
// derivation consumes from a query: its structure key
// (workload.Query.StructureKey: the query with its constants removed)
// followed by each predicate's selectivity, in predicate list order.
// Two queries with equal fingerprints are indistinguishable to
// buildTemplates: the derivation reads predicates only through predSel,
// operator kinds, and list position, so equal fingerprints guarantee
// bit-identical template plans.
//
// Constants are abstracted by recording the float64 bits of the
// estimated selectivity rather than the literal bounds: two statements
// instantiated from the same template share a fingerprint exactly when
// the histograms price their constants identically.
func (e *Engine) ShapeFingerprint(q *workload.Query) string {
	key := q.StructureKey()
	var b strings.Builder
	b.Grow(len(key) + 5 + 17*len(q.Preds))
	b.WriteString(key)
	b.WriteString("|sel:")
	for i, p := range q.Preds {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(strconv.FormatUint(math.Float64bits(e.predSel(p)), 16))
	}
	return b.String()
}

// PlanStamp identifies the derivation environment: the catalog
// contents, the cost profile, and the cost-model version. Persisted
// template plans are valid only under the exact stamp they were
// derived with.
func (e *Engine) PlanStamp() string {
	var b strings.Builder
	b.WriteString("cat:")
	b.WriteString(strconv.FormatUint(e.Cat.Hash(), 16))
	b.WriteString("|model:")
	b.WriteString(strconv.Itoa(CostModelVersion))
	b.WriteString("|prof:")
	p := e.Prof
	b.WriteString(p.Name)
	for _, f := range []float64{
		p.SeqPageCost, p.RandPageCost, p.CPUTupleCost, p.CPUIndexTupleCost,
		p.CPUOperatorCost, float64(p.MemoryPages), p.HashFudge, p.NLFudge,
		p.SortFudge, p.Correlation,
	} {
		b.WriteByte(',')
		b.WriteString(strconv.FormatUint(math.Float64bits(f), 16))
	}
	return b.String()
}
