package engine

import (
	"math"
	"strconv"
	"strings"

	"repro/internal/workload"
)

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
