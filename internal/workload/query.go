// Package workload models SQL workloads structurally: SELECT and
// UPDATE statements with joins, local predicates, grouping, ordering
// and per-statement weights. It also provides the two workload
// generators of the paper's evaluation — the homogeneous TPC-H-style
// workload W_hom (fifteen query templates instantiated with random
// constants) and the heterogeneous SPJ+aggregation workload W_het
// modeled after the online index-selection benchmark's C2 suite.
//
// Statements are structural rather than textual: predicates carry
// normalized selectivity positions instead of literal constants, which
// is the exact information a cost-based optimizer extracts from SQL
// text plus statistics. String renders a SQL-ish form for display.
package workload

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/catalog"
)

// PredOp enumerates the predicate operators of the query model.
type PredOp int

const (
	// OpEq is an equality predicate column = constant.
	OpEq PredOp = iota
	// OpRange is a range predicate lo ≤ column < hi.
	OpRange
	// OpLt is column < constant.
	OpLt
	// OpGt is column ≥ constant.
	OpGt
)

// Predicate is a local (single-table) predicate. Positions are
// normalized to [0,1] over the column's value domain; the histogram
// translates them into selectivities.
type Predicate struct {
	Col catalog.ColumnRef
	Op  PredOp
	// Lo and Hi delimit a range predicate; for OpLt only Hi is used,
	// for OpGt only Lo, and for OpEq only Lo (the equality position).
	Lo, Hi float64
}

// String renders the predicate in SQL-ish form with normalized
// positions as pseudo-constants.
func (p Predicate) String() string {
	switch p.Op {
	case OpEq:
		return fmt.Sprintf("%s = :%0.3f", p.Col, p.Lo)
	case OpRange:
		return fmt.Sprintf("%s BETWEEN :%0.3f AND :%0.3f", p.Col, p.Lo, p.Hi)
	case OpLt:
		return fmt.Sprintf("%s < :%0.3f", p.Col, p.Hi)
	case OpGt:
		return fmt.Sprintf("%s >= :%0.3f", p.Col, p.Lo)
	default:
		return fmt.Sprintf("%s ?op%d?", p.Col, int(p.Op))
	}
}

// Join is an equi-join between two column references of different
// tables.
type Join struct {
	Left, Right catalog.ColumnRef
}

// String renders the join condition.
func (j Join) String() string { return j.Left.String() + " = " + j.Right.String() }

// MaxTables is the most tables one query may reference: the parser
// rejects a longer FROM list, and the optimizer's join DP (2^n subsets)
// refuses to plan one.
const MaxTables = 12

// Query is a SELECT statement (or the query shell of an UPDATE). Each
// table is referenced at most once, matching the simplifying
// assumption of §2 of the paper.
type Query struct {
	// ID identifies the statement within its workload.
	ID string
	// Template names the query template this statement was
	// instantiated from; statements from the same template share their
	// INUM template plans' shape. Workload compression (Tool-B)
	// exploits this field.
	Template string
	// Tables lists the referenced tables.
	Tables []string
	// Select lists the projected columns.
	Select []catalog.ColumnRef
	// Preds lists the local predicates.
	Preds []Predicate
	// Joins lists the equi-join conditions.
	Joins []Join
	// GroupBy lists grouping columns (empty when no grouping).
	GroupBy []catalog.ColumnRef
	// OrderBy lists ordering columns (empty when no ordering).
	OrderBy []catalog.ColumnRef
	// Aggregate marks the presence of aggregation functions in the
	// select list.
	Aggregate bool
}

// References reports whether the query references the named table.
func (q *Query) References(table string) bool {
	for _, t := range q.Tables {
		if t == table {
			return true
		}
	}
	return false
}

// ColumnsOf returns every column of the given table the query touches
// (select list, predicates, joins, grouping and ordering), with
// duplicates removed, in first-seen order.
func (q *Query) ColumnsOf(table string) []string {
	var out []string
	seen := make(map[string]bool)
	add := func(ref catalog.ColumnRef) {
		if ref.Table == table && !seen[ref.Column] {
			seen[ref.Column] = true
			out = append(out, ref.Column)
		}
	}
	for _, r := range q.Select {
		add(r)
	}
	for _, p := range q.Preds {
		add(p.Col)
	}
	for _, j := range q.Joins {
		add(j.Left)
		add(j.Right)
	}
	for _, r := range q.GroupBy {
		add(r)
	}
	for _, r := range q.OrderBy {
		add(r)
	}
	return out
}

// PredsOf returns the local predicates on the given table.
func (q *Query) PredsOf(table string) []Predicate {
	var out []Predicate
	for _, p := range q.Preds {
		if p.Col.Table == table {
			out = append(out, p)
		}
	}
	return out
}

// JoinColsOf returns the columns of the given table that participate
// in join conditions.
func (q *Query) JoinColsOf(table string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, j := range q.Joins {
		for _, ref := range []catalog.ColumnRef{j.Left, j.Right} {
			if ref.Table == table && !seen[ref.Column] {
				seen[ref.Column] = true
				out = append(out, ref.Column)
			}
		}
	}
	return out
}

// StructureKey canonically identifies the query with its constants
// removed: the tables, select list, joins, grouping, ordering and
// aggregation, and each predicate's (column, operator) in list order.
// ID, Template and the predicates' Lo/Hi never enter it, so statements
// instantiated from one template share a key. Candidate generation
// reads nothing else of a query; the INUM shape fingerprint
// (engine.ShapeFingerprint) is this key plus each predicate's
// selectivity.
func (q *Query) StructureKey() string {
	var b strings.Builder
	b.Grow(256)
	col := func(r catalog.ColumnRef) {
		b.WriteString(r.Table)
		b.WriteByte('.')
		b.WriteString(r.Column)
	}
	refs := func(tag string, rs []catalog.ColumnRef) {
		b.WriteString(tag)
		for i, r := range rs {
			if i > 0 {
				b.WriteByte(',')
			}
			col(r)
		}
	}

	b.WriteString("t:")
	b.WriteString(strings.Join(q.Tables, ","))
	refs("|s:", q.Select)
	b.WriteString("|j:")
	for i, j := range q.Joins {
		if i > 0 {
			b.WriteByte(',')
		}
		col(j.Left)
		b.WriteByte('=')
		col(j.Right)
	}
	refs("|g:", q.GroupBy)
	refs("|o:", q.OrderBy)
	if q.Aggregate {
		b.WriteString("|a:1")
	} else {
		b.WriteString("|a:0")
	}
	// Predicates in list order: CGen's equality prefix and the
	// optimizer's selectivity products both consume them in this order.
	b.WriteString("|p:")
	for i, p := range q.Preds {
		if i > 0 {
			b.WriteByte(';')
		}
		col(p.Col)
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(int(p.Op)))
	}
	return b.String()
}

// String renders the query as SQL-ish text.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Aggregate {
		b.WriteString("AGG(")
	}
	sel := make([]string, len(q.Select))
	for i, r := range q.Select {
		sel[i] = r.String()
	}
	b.WriteString(strings.Join(sel, ", "))
	if q.Aggregate {
		b.WriteString(")")
	}
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(q.Tables, ", "))
	var conds []string
	for _, j := range q.Joins {
		conds = append(conds, j.String())
	}
	for _, p := range q.Preds {
		conds = append(conds, p.String())
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	if len(q.GroupBy) > 0 {
		g := make([]string, len(q.GroupBy))
		for i, r := range q.GroupBy {
			g[i] = r.String()
		}
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(g, ", "))
	}
	if len(q.OrderBy) > 0 {
		o := make([]string, len(q.OrderBy))
		for i, r := range q.OrderBy {
			o[i] = r.String()
		}
		b.WriteString(" ORDER BY ")
		b.WriteString(strings.Join(o, ", "))
	}
	return b.String()
}

// Update is an UPDATE statement, modeled per §2 of the paper as a
// query shell (selecting the tuples to update) plus an update shell
// that maintains affected indexes.
type Update struct {
	// ID identifies the statement within its workload.
	ID string
	// Table is the updated table.
	Table string
	// SetCols lists the assigned columns. An index is affected by the
	// update iff it stores any of these columns.
	SetCols []string
	// Where lists the predicates of the query shell.
	Where []Predicate

	shellOnce sync.Once
	shell     *Query
}

// Shell returns the query shell q_r: a SELECT over the updated table
// with the UPDATE's WHERE clause. It is built once, on the first call,
// and the same *Query is returned for the update's life, so state kept
// per query (a session's compiled slabs) finds the shell again. The
// update must be complete, ID included, before the first call.
func (u *Update) Shell() *Query {
	u.shellOnce.Do(func() {
		q := &Query{
			ID:       u.ID + "#shell",
			Template: "update-shell",
			Tables:   []string{u.Table},
			Preds:    append([]Predicate(nil), u.Where...),
		}
		for _, c := range u.SetCols {
			q.Select = append(q.Select, catalog.ColumnRef{Table: u.Table, Column: c})
		}
		u.shell = q
	})
	return u.shell
}

// Affects reports whether the update maintains index ix, i.e. whether
// ix stores any assigned column as key or include.
func (u *Update) Affects(ix *catalog.Index) bool {
	if ix.Table != u.Table {
		return false
	}
	for _, set := range u.SetCols {
		for _, k := range ix.Key {
			if k == set {
				return true
			}
		}
		for _, inc := range ix.Include {
			if inc == set {
				return true
			}
		}
	}
	return false
}

// String renders the update as SQL-ish text.
func (u *Update) String() string {
	sets := make([]string, len(u.SetCols))
	for i, c := range u.SetCols {
		sets[i] = c + " = :v"
	}
	s := fmt.Sprintf("UPDATE %s SET %s", u.Table, strings.Join(sets, ", "))
	if len(u.Where) > 0 {
		var conds []string
		for _, p := range u.Where {
			conds = append(conds, p.String())
		}
		s += " WHERE " + strings.Join(conds, " AND ")
	}
	return s
}

// Statement is one weighted workload entry: either a query or an
// update.
type Statement struct {
	// Query is non-nil for SELECT statements.
	Query *Query
	// Update is non-nil for UPDATE statements.
	Update *Update
	// Weight is the statement weight f_q — frequency or DBA-assigned
	// importance.
	Weight float64
}

// ID returns the statement identifier.
func (s *Statement) ID() string {
	if s.Query != nil {
		return s.Query.ID
	}
	return s.Update.ID
}

// IsUpdate reports whether the statement is an UPDATE.
func (s *Statement) IsUpdate() bool { return s.Update != nil }

// String renders the statement.
func (s *Statement) String() string {
	if s.Query != nil {
		return s.Query.String()
	}
	return s.Update.String()
}

// Workload is a weighted sequence of statements.
type Workload struct {
	// Name labels the workload (e.g. "W_hom_1000").
	Name string
	// Statements holds the workload entries.
	Statements []*Statement
}

// Queries returns the SELECT statements and update query shells with
// their weights — the set W_r of the paper.
func (w *Workload) Queries() []*Statement {
	var out []*Statement
	for _, s := range w.Statements {
		if s.Query != nil {
			out = append(out, s)
		} else {
			out = append(out, &Statement{Query: s.Update.Shell(), Weight: s.Weight})
		}
	}
	return out
}

// Updates returns the UPDATE statements — the set W_u of the paper.
func (w *Workload) Updates() []*Statement {
	var out []*Statement
	for _, s := range w.Statements {
		if s.Update != nil {
			out = append(out, s)
		}
	}
	return out
}

// Size returns the number of statements.
func (w *Workload) Size() int { return len(w.Statements) }

// TotalWeight returns the sum of statement weights.
func (w *Workload) TotalWeight() float64 {
	var sum float64
	for _, s := range w.Statements {
		sum += s.Weight
	}
	return sum
}
