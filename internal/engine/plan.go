package engine

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
)

// Op enumerates physical operators.
type Op int

const (
	// OpSeqScan reads the full heap.
	OpSeqScan Op = iota
	// OpIndexScan reads a key range of a secondary index and fetches
	// matching heap rows.
	OpIndexScan
	// OpIndexOnlyScan reads a key range of a covering index with no
	// heap fetches.
	OpIndexOnlyScan
	// OpClusteredScan reads a key range of the clustered index.
	OpClusteredScan
	// OpIndexLookup performs repeated point lookups on an index, as
	// the inner of an index nested-loop join.
	OpIndexLookup
	// OpNLJoin is a nested-loop join (inner is an index lookup or a
	// rescan).
	OpNLJoin
	// OpHashJoin builds a hash table on one input and probes with the
	// other.
	OpHashJoin
	// OpMergeJoin merges two sorted inputs.
	OpMergeJoin
	// OpSort sorts its input.
	OpSort
	// OpHashAgg groups via hashing.
	OpHashAgg
	// OpStreamAgg groups a sorted input.
	OpStreamAgg
)

// String returns the operator name.
func (o Op) String() string {
	switch o {
	case OpSeqScan:
		return "SeqScan"
	case OpIndexScan:
		return "IndexScan"
	case OpIndexOnlyScan:
		return "IndexOnlyScan"
	case OpClusteredScan:
		return "ClusteredScan"
	case OpIndexLookup:
		return "IndexLookup"
	case OpNLJoin:
		return "NLJoin"
	case OpHashJoin:
		return "HashJoin"
	case OpMergeJoin:
		return "MergeJoin"
	case OpSort:
		return "Sort"
	case OpHashAgg:
		return "HashAgg"
	case OpStreamAgg:
		return "StreamAgg"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// IsLeaf reports whether the operator is a table access method — the
// leaves that INUM's template plans replace with slots.
func (o Op) IsLeaf() bool {
	switch o {
	case OpSeqScan, OpIndexScan, OpIndexOnlyScan, OpClusteredScan, OpIndexLookup:
		return true
	}
	return false
}

// PlanNode is one node of a physical plan tree.
type PlanNode struct {
	// Op is the physical operator.
	Op Op
	// Table is the accessed table for leaf operators.
	Table string
	// Index is the access index for index leaves (nil for SeqScan).
	Index *catalog.Index
	// Children holds input plans (empty for leaves; join children are
	// [outer, inner]).
	Children []*PlanNode
	// Rows is the estimated output cardinality.
	Rows float64
	// Cost is the cumulative cost of the subtree rooted here.
	Cost float64
	// SelfCost is the cost of this operator alone (Cost minus the
	// children's Cost). For OpIndexLookup leaves, SelfCost already
	// includes the multiplication by the number of outer probes — it
	// is the *total* access cost of the slot, matching the γ
	// convention of Lemma 1.
	SelfCost float64
	// Order is the delivered sort order, empty if unordered.
	Order []catalog.ColumnRef
	// Lookups, for OpIndexLookup, is the number of probes the outer
	// side drives.
	Lookups float64
	// LookupCol, for OpIndexLookup, is the join column probed on this
	// table.
	LookupCol string
	// Width is the average output row width in bytes, used for sort
	// and hash memory estimates.
	Width float64
}

// Leaves appends the leaf nodes of the subtree in left-to-right order.
func (n *PlanNode) Leaves(dst []*PlanNode) []*PlanNode {
	if n.Op.IsLeaf() {
		return append(dst, n)
	}
	for _, c := range n.Children {
		dst = c.Leaves(dst)
	}
	return dst
}

// InternalCost returns the cumulative cost of the subtree minus the
// total cost of its leaves — the "internal plan cost" β of INUM.
func (n *PlanNode) InternalCost() float64 {
	var leafCost float64
	for _, l := range n.Leaves(nil) {
		leafCost += l.SelfCost
	}
	return n.Cost - leafCost
}

// Format renders the plan tree with indentation, for debugging and the
// CLI's EXPLAIN output.
func (n *PlanNode) Format() string {
	var b strings.Builder
	n.format(&b, 0)
	return b.String()
}

func (n *PlanNode) format(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Op.String())
	if n.Table != "" {
		fmt.Fprintf(b, " %s", n.Table)
	}
	if n.Index != nil {
		fmt.Fprintf(b, " [%s]", n.Index.ID())
	}
	fmt.Fprintf(b, " rows=%.0f cost=%.1f", n.Rows, n.Cost)
	if len(n.Order) > 0 {
		fmt.Fprintf(b, " order=%v", n.Order)
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		c.format(b, depth+1)
	}
}

// Plan is the result of optimizing one query: a physical tree plus its
// total estimated cost.
type Plan struct {
	Root *PlanNode
	// Cost is the total plan cost (equals Root.Cost).
	Cost float64
}

// String renders the plan tree.
func (p *Plan) String() string { return p.Root.Format() }
