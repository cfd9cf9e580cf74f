package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/tpch"
)

func parseOne(t *testing.T, sql string) *Statement {
	t.Helper()
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.01})
	w, err := Parse(cat, sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	if w.Size() != 1 {
		t.Fatalf("parsed %d statements", w.Size())
	}
	return w.Statements[0]
}

func TestParseSimpleSelect(t *testing.T) {
	st := parseOne(t, "SELECT l_extendedprice FROM lineitem WHERE l_shipdate BETWEEN :0.2 AND :0.3;")
	q := st.Query
	if q == nil {
		t.Fatal("not a query")
	}
	if len(q.Tables) != 1 || q.Tables[0] != "lineitem" {
		t.Fatalf("tables = %v", q.Tables)
	}
	if len(q.Preds) != 1 || q.Preds[0].Op != OpRange || q.Preds[0].Lo != 0.2 || q.Preds[0].Hi != 0.3 {
		t.Fatalf("preds = %v", q.Preds)
	}
	if q.Select[0].Column != "l_extendedprice" {
		t.Fatalf("select = %v", q.Select)
	}
}

func TestParseJoinGroupOrder(t *testing.T) {
	st := parseOne(t, `
		SELECT o_orderdate, SUM(l_extendedprice)
		FROM orders, lineitem
		WHERE l_orderkey = o_orderkey AND o_orderdate < :0.5
		GROUP BY o_orderdate
		ORDER BY o_orderdate;`)
	q := st.Query
	if len(q.Joins) != 1 {
		t.Fatalf("joins = %v", q.Joins)
	}
	if q.Joins[0].Left.Column != "l_orderkey" || q.Joins[0].Right.Column != "o_orderkey" {
		t.Fatalf("join = %v", q.Joins[0])
	}
	if !q.Aggregate {
		t.Fatal("aggregate flag missing")
	}
	if len(q.GroupBy) != 1 || len(q.OrderBy) != 1 {
		t.Fatalf("group/order = %v / %v", q.GroupBy, q.OrderBy)
	}
	if len(q.Preds) != 1 || q.Preds[0].Op != OpLt {
		t.Fatalf("preds = %v", q.Preds)
	}
}

func TestParseQualifiedAndOperators(t *testing.T) {
	st := parseOne(t, "SELECT lineitem.l_quantity FROM lineitem WHERE lineitem.l_quantity >= :0.7 AND lineitem.l_discount = :0.1;")
	q := st.Query
	if len(q.Preds) != 2 {
		t.Fatalf("preds = %v", q.Preds)
	}
	if q.Preds[0].Op != OpGt || q.Preds[1].Op != OpEq {
		t.Fatalf("ops = %v %v", q.Preds[0].Op, q.Preds[1].Op)
	}
}

func TestParseUpdate(t *testing.T) {
	st := parseOne(t, "UPDATE lineitem SET l_quantity = :0.5 WHERE l_orderkey BETWEEN :0.1 AND :0.11 WEIGHT 3;")
	u := st.Update
	if u == nil {
		t.Fatal("not an update")
	}
	if u.Table != "lineitem" || len(u.SetCols) != 1 || u.SetCols[0] != "l_quantity" {
		t.Fatalf("update = %+v", u)
	}
	if len(u.Where) != 1 {
		t.Fatalf("where = %v", u.Where)
	}
	if st.Weight != 3 {
		t.Fatalf("weight = %v", st.Weight)
	}
}

func TestParseMultipleStatementsAndComments(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.01})
	w, err := Parse(cat, `
		-- a comment
		SELECT c_name FROM customer WHERE c_mktsegment = :0.3;
		SELECT o_totalprice FROM orders WHERE o_orderdate < :0.4 WEIGHT 2;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != 2 {
		t.Fatalf("size = %d", w.Size())
	}
	if w.Statements[1].Weight != 2 {
		t.Fatalf("weights = %v", w.Statements[1].Weight)
	}
}

func TestParseErrors(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.01})
	for _, bad := range []string{
		"",
		"DELETE FROM lineitem;",
		"SELECT x FROM lineitem;",
		"SELECT l_quantity FROM nope;",
		"SELECT l_quantity FROM lineitem WHERE l_quantity LIKE :0.5;",
		"SELECT l_quantity FROM lineitem WHERE orders.o_orderkey = :0.5;",
		"SELECT l_quantity FROM lineitem GROUP;",
		"UPDATE lineitem SET o_orderkey = :0.5;",
		"SELECT l_quantity FROM lineitem WHERE l_quantity BETWEEN :0.1;",
		"SELECT l_quantity FROM lineitem SELECT",
	} {
		if _, err := Parse(cat, bad); err == nil {
			t.Fatalf("expected error for %q", bad)
		}
	}
}

func TestParseAmbiguousColumn(t *testing.T) {
	// l_orderkey vs o_orderkey are distinct, but "comment"-ish columns
	// exist on many tables; craft a genuinely ambiguous case.
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.01})
	// c_comment and o_comment are distinct names, so use a join query
	// where the unqualified column exists on both referenced tables:
	// both partsupp and lineitem have no shared names in our schema,
	// so ambiguity must error only when real. Verify a non-ambiguous
	// unqualified resolve works across two tables:
	w, err := Parse(cat, "SELECT l_quantity, o_totalprice FROM lineitem, orders WHERE l_orderkey = o_orderkey;")
	if err != nil {
		t.Fatal(err)
	}
	q := w.Statements[0].Query
	if q.Select[0].Table != "lineitem" || q.Select[1].Table != "orders" {
		t.Fatalf("resolution wrong: %v", q.Select)
	}
}

func TestParseRoundTripThroughString(t *testing.T) {
	// Generated workloads render with String(); the parser must accept
	// that dialect back (the IDs/templates differ, structure must
	// match).
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.01})
	gen := Hom(HomConfig{Queries: 15, Seed: 50})
	var b strings.Builder
	for _, st := range gen.Statements {
		b.WriteString(st.String())
		b.WriteString(";\n")
	}
	parsed, err := Parse(cat, b.String())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if parsed.Size() != gen.Size() {
		t.Fatalf("size %d != %d", parsed.Size(), gen.Size())
	}
	for i := range gen.Statements {
		g, p := gen.Statements[i].Query, parsed.Statements[i].Query
		if len(g.Tables) != len(p.Tables) || len(g.Preds) != len(p.Preds) ||
			len(g.Joins) != len(p.Joins) || len(g.GroupBy) != len(p.GroupBy) ||
			len(g.OrderBy) != len(p.OrderBy) {
			t.Fatalf("statement %d structure mismatch:\n%s\n%s", i, g, p)
		}
	}
}

func TestParseCountStar(t *testing.T) {
	st := parseOne(t, "SELECT o_orderpriority, COUNT(*) FROM orders WHERE o_orderdate BETWEEN :0.1 AND :0.2 GROUP BY o_orderpriority;")
	q := st.Query
	if !q.Aggregate || len(q.Select) != 1 {
		t.Fatalf("count(*) handling: agg=%v select=%v", q.Aggregate, q.Select)
	}
}

func TestParseWeightRoundTrip(t *testing.T) {
	// Weights are not part of String()'s rendering, so the streaming
	// ingestion path re-attaches them as WEIGHT suffixes; the parser
	// must round-trip integral and fractional weights exactly.
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.01})
	gen := Hom(HomConfig{Queries: 8, Seed: 51})
	weights := []float64{1, 2.5, 0.125, 10, 3, 0.5, 7, 1.75}
	var b strings.Builder
	for i, st := range gen.Statements {
		b.WriteString(st.String())
		fmt.Fprintf(&b, " WEIGHT %g;\n", weights[i])
	}
	parsed, err := Parse(cat, b.String())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if parsed.Size() != gen.Size() {
		t.Fatalf("size %d != %d", parsed.Size(), gen.Size())
	}
	for i, st := range parsed.Statements {
		if st.Weight != weights[i] {
			t.Fatalf("statement %d weight = %v, want %v", i, st.Weight, weights[i])
		}
	}
	if got, want := parsed.TotalWeight(), 25.875; math.Abs(got-want) > 1e-12 {
		t.Fatalf("total weight = %v, want %v", got, want)
	}
}

func TestParseUpdateVariants(t *testing.T) {
	// Multi-column SET, unconditional UPDATE, and the shell derivation.
	st := parseOne(t, "UPDATE orders SET o_totalprice = :0.5, o_shippriority = :0.1;")
	u := st.Update
	if u == nil || len(u.SetCols) != 2 || len(u.Where) != 0 {
		t.Fatalf("update = %+v", u)
	}
	shell := u.Shell()
	if len(shell.Select) != 2 || shell.Tables[0] != "orders" {
		t.Fatalf("shell = %+v", shell)
	}
	// UPDATE with equality WHERE keeps the predicate in the shell.
	st = parseOne(t, "UPDATE customer SET c_acctbal = :0.9 WHERE c_mktsegment = :0.2;")
	if len(st.Update.Where) != 1 || st.Update.Where[0].Op != OpEq {
		t.Fatalf("where = %+v", st.Update.Where)
	}
}

func TestParseUpdateErrors(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.01})
	for _, bad := range []string{
		"UPDATE nope SET x = :0.5;",                                            // unknown table
		"UPDATE lineitem l_quantity = :0.5;",                                   // missing SET
		"UPDATE lineitem SET l_quantity :0.5;",                                 // missing =
		"UPDATE lineitem SET o_totalprice = :0.5;",                             // column of another table
		"UPDATE lineitem SET l_quantity = :0.5 WHERE l_orderkey = o_orderkey;", // join in UPDATE WHERE
		"UPDATE lineitem SET = :0.5;",                                          // missing column
	} {
		if _, err := Parse(cat, bad); err == nil {
			t.Fatalf("expected error for %q", bad)
		}
	}
}

func TestParseMoreErrorPaths(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.01})
	for _, bad := range []string{
		"SELECT l_quantity FROM lineitem WEIGHT x;",                           // non-numeric weight
		"SELECT SUM l_quantity FROM lineitem;",                                // aggregate without parens
		"SELECT SUM(l_quantity FROM lineitem;",                                // unclosed aggregate
		"SELECT l_quantity FROM lineitem WHERE l_shipdate BETWEEN :0.1 :0.2;", // BETWEEN missing AND
		"SELECT l_quantity FROM lineitem WHERE l_shipdate < banana;",          // non-constant comparison
		"SELECT l_quantity FROM lineitem ORDER l_shipdate;",                   // ORDER without BY
		"SELECT l_quantity FROM lineitem GROUP BY;",                           // empty GROUP BY list
		"SELECT l_quantity FROM lineitem extra;",                              // trailing garbage
		"SELECT l_quantity, FROM lineitem;",                                   // dangling comma swallows FROM
		"-- only a comment",                                                   // no statements
	} {
		if _, err := Parse(cat, bad); err == nil {
			t.Fatalf("expected error for %q", bad)
		}
	}
}

func TestParseUpdateRoundTripThroughString(t *testing.T) {
	// Update.String renders SET values as the named placeholder `:v`;
	// the parser must accept that form back (the ingestion daemon
	// replays rendered workloads).
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.01})
	gen := Hom(HomConfig{Queries: 10, UpdateFraction: 0.5, Seed: 52})
	var b strings.Builder
	nUpdates := 0
	for _, st := range gen.Statements {
		if st.IsUpdate() {
			nUpdates++
		}
		b.WriteString(st.String())
		b.WriteString(";\n")
	}
	if nUpdates == 0 {
		t.Fatal("generator produced no updates")
	}
	parsed, err := Parse(cat, b.String())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	gotUpdates := 0
	for _, st := range parsed.Statements {
		if st.IsUpdate() {
			gotUpdates++
		}
	}
	if gotUpdates != nUpdates {
		t.Fatalf("updates %d != %d", gotUpdates, nUpdates)
	}
}
