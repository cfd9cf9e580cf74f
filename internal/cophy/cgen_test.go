package cophy

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// candidatesPerStatement is the reference CGen: every statement is
// expanded on its own, with no grouping by structure, and the union is
// deduplicated by ID and sorted exactly as Candidates does.
func candidatesPerStatement(cat *catalog.Catalog, w *workload.Workload, opts CGenOptions) []*catalog.Index {
	if opts.MaxKeyCols <= 0 {
		opts.MaxKeyCols = 3
	}
	set := make(map[string]*catalog.Index)
	add := func(ix *catalog.Index) {
		if ix == nil || len(ix.Key) == 0 {
			return
		}
		t := cat.Table(ix.Table)
		if t == nil {
			return
		}
		for _, k := range ix.Key {
			if t.Column(k) == nil {
				return
			}
		}
		set[ix.ID()] = ix
	}
	for _, s := range w.Queries() {
		perQueryCandidates(s.Query, opts, add)
	}
	for _, ix := range opts.DBA {
		add(ix)
	}
	out := make([]*catalog.Index, 0, len(set))
	for _, ix := range set {
		out = append(out, ix)
	}
	catalog.SortIndexes(out)
	return out
}

// sqlStream renders n statements drawn round-robin from a few SQL
// templates, each with fresh constants, so statements of one template
// share a structure and differ only in constants.
func sqlStream(n int, seed int64) string {
	r := rand.New(rand.NewSource(seed))
	c := func() string { return fmt.Sprintf(":%.3f", r.Float64()) }
	templates := []func() string{
		func() string {
			return "SELECT l_extendedprice, l_discount FROM lineitem WHERE l_shipdate BETWEEN " + c() + " AND " + c() +
				" AND l_returnflag = " + c() + " ORDER BY l_shipdate"
		},
		func() string {
			return "SELECT o_orderdate, SUM(l_extendedprice) FROM orders, lineitem WHERE o_orderkey = l_orderkey" +
				" AND o_orderdate < " + c() + " AND l_shipmode = " + c() + " AND o_orderpriority = " + c() + " GROUP BY o_orderdate"
		},
		func() string {
			return "SELECT c_name, c_acctbal FROM customer WHERE c_mktsegment = " + c() + " AND c_nationkey = " + c() +
				" AND c_acctbal >= " + c()
		},
		func() string {
			return "UPDATE orders SET o_totalprice = " + c() + " WHERE o_orderkey BETWEEN " + c() + " AND " + c()
		},
		func() string {
			// The customer template's predicates in another order: a
			// different structure with the same column set.
			return "SELECT c_name, c_acctbal FROM customer WHERE c_nationkey = " + c() + " AND c_mktsegment = " + c() +
				" AND c_acctbal >= " + c() + " WEIGHT 2"
		},
		func() string {
			// The customer template with one operator changed: an
			// equality column becomes a range column.
			return "SELECT c_name, c_acctbal FROM customer WHERE c_mktsegment = " + c() + " AND c_nationkey < " + c() +
				" AND c_acctbal >= " + c()
		},
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(templates[i%len(templates)]())
		b.WriteString(";\n")
	}
	return b.String()
}

// TestCandidatesPerStructureMatchesPerStatement holds CGen's
// per-structure expansion to the per-statement union: the same indexes
// in the same order, under every option combination, and blind to
// statement order.
func TestCandidatesPerStructureMatchesPerStatement(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	parsed, err := workload.Parse(cat, sqlStream(60, 3))
	if err != nil {
		t.Fatal(err)
	}
	workloads := []*workload.Workload{
		workload.Hom(workload.HomConfig{Queries: 300, UpdateFraction: 0.1, Seed: 42}),
		workload.Het(workload.HetConfig{Queries: 120, UpdateFraction: 0.05, Seed: 7}),
		parsed,
	}
	dba := []*catalog.Index{
		{Table: "region", Key: []string{"r_name"}},
		{Table: "lineitem", Key: []string{"l_shipdate"}},   // also generated
		{Table: "orders", Key: []string{"no_such_column"}}, // dropped by both
		{Table: "customer", Key: []string{"c_mktsegment"}, Include: []string{"c_name"}},
	}
	for _, w := range workloads {
		reversed := &workload.Workload{Name: w.Name}
		for i := len(w.Statements) - 1; i >= 0; i-- {
			reversed.Statements = append(reversed.Statements, w.Statements[i])
		}
		for _, covering := range []bool{false, true} {
			for keyCols := 1; keyCols <= 4; keyCols++ {
				for _, d := range [][]*catalog.Index{nil, dba} {
					opts := CGenOptions{MaxKeyCols: keyCols, Covering: covering, DBA: d}
					name := fmt.Sprintf("%s/covering=%v/keycols=%d/dba=%d", w.Name, covering, keyCols, len(d))
					want := candidatesPerStatement(cat, w, opts)
					if len(want) == 0 {
						t.Fatalf("%s: reference generated no candidates", name)
					}
					for _, in := range []*workload.Workload{w, reversed} {
						got := Candidates(cat, in, opts)
						if len(got) != len(want) {
							t.Fatalf("%s: %d candidates, per-statement reference has %d", name, len(got), len(want))
						}
						for i := range want {
							if got[i].ID() != want[i].ID() || !reflect.DeepEqual(got[i], want[i]) {
								t.Fatalf("%s: candidate %d is %s, reference has %s", name, i, got[i].ID(), want[i].ID())
							}
						}
					}
				}
			}
		}
	}
}

// TestStructureKeyIgnoresConstantsOnly pins what the structure key
// abstracts: statements of one template share it, and a change to any
// field candidate generation reads gives a different key.
func TestStructureKeyIgnoresConstantsOnly(t *testing.T) {
	w := workload.Hom(workload.HomConfig{Queries: 60, Seed: 42})
	byTemplate := map[string]string{}
	keys := map[string]bool{}
	for _, s := range w.Statements {
		k := s.Query.StructureKey()
		if prev, ok := byTemplate[s.Query.Template]; ok && prev != k {
			t.Fatalf("template %s: statements have keys %q and %q", s.Query.Template, prev, k)
		}
		byTemplate[s.Query.Template] = k
		keys[k] = true
	}
	if len(keys) != len(workload.Templates()) {
		t.Fatalf("%d distinct keys for %d templates", len(keys), len(workload.Templates()))
	}

	ref := func(tb, col string) catalog.ColumnRef { return catalog.ColumnRef{Table: tb, Column: col} }
	base := func() *workload.Query {
		return &workload.Query{
			ID:       "q1",
			Template: "t1",
			Tables:   []string{"orders", "lineitem"},
			Select:   []catalog.ColumnRef{ref("orders", "o_orderdate"), ref("lineitem", "l_extendedprice")},
			Preds: []workload.Predicate{
				{Col: ref("lineitem", "l_shipmode"), Op: workload.OpEq, Lo: 0.3},
				{Col: ref("lineitem", "l_returnflag"), Op: workload.OpEq, Lo: 0.6},
				{Col: ref("orders", "o_orderdate"), Op: workload.OpRange, Lo: 0.1, Hi: 0.2},
			},
			Joins:     []workload.Join{{Left: ref("orders", "o_orderkey"), Right: ref("lineitem", "l_orderkey")}},
			GroupBy:   []catalog.ColumnRef{ref("orders", "o_orderdate")},
			OrderBy:   []catalog.ColumnRef{ref("orders", "o_orderdate")},
			Aggregate: true,
		}
	}
	want := base().StructureKey()

	same := map[string]func(q *workload.Query){
		"id":       func(q *workload.Query) { q.ID = "q2" },
		"template": func(q *workload.Query) { q.Template = "t2" },
		"eq const": func(q *workload.Query) { q.Preds[0].Lo = 0.9 },
		"range lo": func(q *workload.Query) { q.Preds[2].Lo = 0.05 },
		"range hi": func(q *workload.Query) { q.Preds[2].Hi = 0.7 },
	}
	for name, mutate := range same {
		q := base()
		mutate(q)
		if got := q.StructureKey(); got != want {
			t.Errorf("%s: key changed from %q to %q", name, want, got)
		}
	}

	differ := map[string]func(q *workload.Query){
		"table":        func(q *workload.Query) { q.Tables = append(q.Tables, "customer") },
		"table order":  func(q *workload.Query) { q.Tables[0], q.Tables[1] = q.Tables[1], q.Tables[0] },
		"select":       func(q *workload.Query) { q.Select[1] = ref("lineitem", "l_discount") },
		"pred column":  func(q *workload.Query) { q.Preds[0].Col = ref("lineitem", "l_linestatus") },
		"pred op":      func(q *workload.Query) { q.Preds[2].Op = workload.OpLt },
		"pred order":   func(q *workload.Query) { q.Preds[0], q.Preds[1] = q.Preds[1], q.Preds[0] },
		"pred dropped": func(q *workload.Query) { q.Preds = q.Preds[:2] },
		"join":         func(q *workload.Query) { q.Joins[0].Right = ref("lineitem", "l_suppkey") },
		"group":        func(q *workload.Query) { q.GroupBy = nil },
		"order":        func(q *workload.Query) { q.OrderBy[0] = ref("lineitem", "l_extendedprice") },
		"aggregate":    func(q *workload.Query) { q.Aggregate = false },
	}
	for name, mutate := range differ {
		q := base()
		mutate(q)
		if got := q.StructureKey(); got == want {
			t.Errorf("%s: key %q did not change", name, got)
		}
	}
}
