package engine

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/tpch"
	"repro/internal/workload"
)

func testEnv(t *testing.T) (*catalog.Catalog, *Engine, *Config) {
	t.Helper()
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	e := New(cat, SystemA())
	base := NewConfig(tpch.BaselineIndexes(cat)...)
	return cat, e, base
}

func ref(tb, c string) catalog.ColumnRef { return catalog.ColumnRef{Table: tb, Column: c} }

// selectiveQuery is a single-table range query on lineitem.l_shipdate.
func selectiveQuery(width float64) *workload.Query {
	return &workload.Query{
		ID:     "t-sel",
		Tables: []string{"lineitem"},
		Select: []catalog.ColumnRef{ref("lineitem", "l_extendedprice")},
		Preds: []workload.Predicate{
			{Col: ref("lineitem", "l_shipdate"), Op: workload.OpRange, Lo: 0.4, Hi: 0.4 + width},
		},
	}
}

func TestSeqScanBaseline(t *testing.T) {
	_, e, base := testEnv(t)
	q := selectiveQuery(0.01)
	p, err := e.WhatIfPlan(q, base)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost <= 0 {
		t.Fatalf("cost = %v", p.Cost)
	}
	// Without a useful index the plan must read the heap (or the
	// clustered PK, same cost class).
	leaf := p.Root.Leaves(nil)[0]
	if leaf.Op != OpSeqScan && leaf.Op != OpClusteredScan {
		t.Fatalf("leaf op = %v", leaf.Op)
	}
}

func TestIndexBeatsScanWhenSelective(t *testing.T) {
	_, e, base := testEnv(t)
	q := selectiveQuery(0.005)
	noIx, _ := e.WhatIfCost(q, base)
	ix := &catalog.Index{Table: "lineitem", Key: []string{"l_shipdate"}}
	withIx, _ := e.WhatIfCost(q, base.Union(NewConfig(ix)))
	if withIx >= noIx {
		t.Fatalf("selective index should win: with=%v without=%v", withIx, noIx)
	}
}

func TestCoveringIndexBeatsNonCovering(t *testing.T) {
	_, e, base := testEnv(t)
	q := selectiveQuery(0.05)
	plain := &catalog.Index{Table: "lineitem", Key: []string{"l_shipdate"}}
	covering := &catalog.Index{Table: "lineitem", Key: []string{"l_shipdate"}, Include: []string{"l_extendedprice"}}
	cPlain, _ := e.WhatIfCost(q, base.Union(NewConfig(plain)))
	cCover, _ := e.WhatIfCost(q, base.Union(NewConfig(covering)))
	if cCover >= cPlain {
		t.Fatalf("covering index should win: covering=%v plain=%v", cCover, cPlain)
	}
}

func TestWideRangePrefersScan(t *testing.T) {
	_, e, base := testEnv(t)
	q := selectiveQuery(0.9)
	ix := &catalog.Index{Table: "lineitem", Key: []string{"l_shipdate"}}
	p, err := e.WhatIfPlan(q, base.Union(NewConfig(ix)))
	if err != nil {
		t.Fatal(err)
	}
	leaf := p.Root.Leaves(nil)[0]
	if leaf.Op == OpIndexScan {
		t.Fatalf("90%% range should not use a non-covering secondary index:\n%s", p)
	}
}

func TestCostMonotoneInConfig(t *testing.T) {
	// Adding indexes never increases the optimal query cost.
	_, e, base := testEnv(t)
	w := workload.Hom(workload.HomConfig{Queries: 15, Seed: 11})
	add := NewConfig(
		&catalog.Index{Table: "lineitem", Key: []string{"l_shipdate", "l_discount"}},
		&catalog.Index{Table: "orders", Key: []string{"o_orderdate"}},
		&catalog.Index{Table: "customer", Key: []string{"c_mktsegment"}},
	)
	for _, s := range w.Queries() {
		before, err := e.WhatIfCost(s.Query, base)
		if err != nil {
			t.Fatalf("%s: %v", s.Query.ID, err)
		}
		after, err := e.WhatIfCost(s.Query, base.Union(add))
		if err != nil {
			t.Fatalf("%s: %v", s.Query.ID, err)
		}
		if after > before*1.0000001 {
			t.Fatalf("%s: cost grew when indexes added: %v -> %v", s.Query.ID, before, after)
		}
	}
}

func TestJoinQueryPlans(t *testing.T) {
	_, e, base := testEnv(t)
	w := workload.Hom(workload.HomConfig{Queries: 15, Seed: 12})
	for _, s := range w.Queries() {
		p, err := e.WhatIfPlan(s.Query, base)
		if err != nil {
			t.Fatalf("%s: %v", s.Query.ID, err)
		}
		leaves := p.Root.Leaves(nil)
		if len(leaves) != len(s.Query.Tables) {
			t.Fatalf("%s: %d leaves for %d tables\n%s", s.Query.ID, len(leaves), len(s.Query.Tables), p)
		}
		if p.Cost <= 0 || math.IsInf(p.Cost, 0) || math.IsNaN(p.Cost) {
			t.Fatalf("%s: bad cost %v", s.Query.ID, p.Cost)
		}
	}
}

func TestIndexNLJoinUsedWithFKIndex(t *testing.T) {
	_, e, base := testEnv(t)
	q := &workload.Query{
		ID:     "t-nl",
		Tables: []string{"orders", "lineitem"},
		Select: []catalog.ColumnRef{ref("lineitem", "l_extendedprice")},
		Joins:  []workload.Join{{Left: ref("lineitem", "l_orderkey"), Right: ref("orders", "o_orderkey")}},
		Preds: []workload.Predicate{
			{Col: ref("orders", "o_orderdate"), Op: workload.OpRange, Lo: 0.1, Hi: 0.101},
		},
	}
	oix := &catalog.Index{Table: "orders", Key: []string{"o_orderdate"}}
	lix := &catalog.Index{Table: "lineitem", Key: []string{"l_orderkey"}, Include: []string{"l_extendedprice"}}
	cfg := base.Union(NewConfig(oix, lix))
	p, err := e.WhatIfPlan(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.String(), "NLJoin") && !strings.Contains(p.String(), "MergeJoin") {
		// With a tiny outer, NL (or merge via clustered PK) should beat
		// hashing the 300k-row lineitem table.
		t.Fatalf("expected index-assisted join:\n%s", p)
	}
	base2, _ := e.WhatIfCost(q, base)
	with, _ := e.WhatIfCost(q, cfg)
	if with >= base2 {
		t.Fatalf("join indexes should help: %v >= %v", with, base2)
	}
}

func TestOrderByAvoidsSortWithIndex(t *testing.T) {
	_, e, base := testEnv(t)
	q := &workload.Query{
		ID:      "t-ord",
		Tables:  []string{"customer"},
		Select:  []catalog.ColumnRef{ref("customer", "c_acctbal")},
		OrderBy: []catalog.ColumnRef{ref("customer", "c_acctbal")},
	}
	ix := &catalog.Index{Table: "customer", Key: []string{"c_acctbal"}}
	pNo, _ := e.WhatIfPlan(q, base)
	pIx, _ := e.WhatIfPlan(q, base.Union(NewConfig(ix)))
	if !strings.Contains(pNo.String(), "Sort") {
		t.Fatalf("baseline should sort:\n%s", pNo)
	}
	if strings.Contains(pIx.String(), "Sort") {
		t.Fatalf("index order should avoid the sort:\n%s", pIx)
	}
	if pIx.Cost >= pNo.Cost {
		t.Fatalf("sorted access should be cheaper: %v >= %v", pIx.Cost, pNo.Cost)
	}
}

func TestGroupByStreamAggWithIndex(t *testing.T) {
	_, e, base := testEnv(t)
	q := &workload.Query{
		ID:        "t-grp",
		Tables:    []string{"lineitem"},
		Select:    []catalog.ColumnRef{ref("lineitem", "l_returnflag"), ref("lineitem", "l_quantity")},
		GroupBy:   []catalog.ColumnRef{ref("lineitem", "l_returnflag")},
		Aggregate: true,
	}
	ix := &catalog.Index{Table: "lineitem", Key: []string{"l_returnflag"}, Include: []string{"l_quantity"}}
	pIx, err := e.WhatIfPlan(q, base.Union(NewConfig(ix)))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pIx.String(), "StreamAgg") {
		t.Fatalf("expected stream aggregation over sorted covering index:\n%s", pIx)
	}
}

func TestSkewMakesHotRangeExpensive(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05, Skew: 2})
	e := New(cat, SystemA())
	base := NewConfig(tpch.BaselineIndexes(cat)...)
	hot := &workload.Query{
		ID: "hot", Tables: []string{"orders"},
		Select: []catalog.ColumnRef{ref("orders", "o_totalprice")},
		Preds:  []workload.Predicate{{Col: ref("orders", "o_orderdate"), Op: workload.OpRange, Lo: 0, Hi: 0.05}},
	}
	cold := &workload.Query{
		ID: "cold", Tables: []string{"orders"},
		Select: []catalog.ColumnRef{ref("orders", "o_totalprice")},
		Preds:  []workload.Predicate{{Col: ref("orders", "o_orderdate"), Op: workload.OpRange, Lo: 0.9, Hi: 0.95}},
	}
	ix := NewConfig(&catalog.Index{Table: "orders", Key: []string{"o_orderdate"}, Include: []string{"o_totalprice"}})
	hotCost, _ := e.WhatIfCost(hot, base.Union(ix))
	coldCost, _ := e.WhatIfCost(cold, base.Union(ix))
	if hotCost <= coldCost {
		t.Fatalf("under z=2 the hot range should cost more: hot=%v cold=%v", hotCost, coldCost)
	}
}

func TestWhatIfCallCounting(t *testing.T) {
	_, e, base := testEnv(t)
	e.ResetWhatIfCalls()
	q := selectiveQuery(0.01)
	for i := 0; i < 3; i++ {
		if _, err := e.WhatIfCost(q, base); err != nil {
			t.Fatal(err)
		}
	}
	if e.WhatIfCalls() != 3 {
		t.Fatalf("WhatIfCalls = %d, want 3", e.WhatIfCalls())
	}
}

// TestTemplatePlanHonorsForcedOrder: a forced order makes the plan
// read the table through the one index that delivers it, and an order
// no access path delivers yields an error, not a plan.
func TestTemplatePlanHonorsForcedOrder(t *testing.T) {
	_, e, base := testEnv(t)
	q := &workload.Query{
		ID:     "t-forced",
		Tables: []string{"lineitem"},
		Select: []catalog.ColumnRef{ref("lineitem", "l_extendedprice")},
		Preds: []workload.Predicate{
			{Col: ref("lineitem", "l_shipdate"), Op: workload.OpRange, Lo: 0.2, Hi: 0.25},
		},
	}
	ix := &catalog.Index{Table: "lineitem", Key: []string{"l_shipdate"}}
	tc := e.NewTemplateCtx(q, base.Union(NewConfig(ix)))
	defer tc.Close()
	forced := map[string][]catalog.ColumnRef{"lineitem": {ref("lineitem", "l_shipdate")}}
	leaves, _, err := tc.TemplatePlan(forced, nil)
	if err != nil {
		t.Fatal(err)
	}
	if leaf := leaves[0]; leaf.Index != ix || !satisfiesOrder(leaf.Order, forced["lineitem"]) {
		t.Fatalf("forced order violated: leaf %s order %v", leaf.Op, leaf.Order)
	}
	// Forcing an unobtainable order must fail.
	if _, _, err := tc.TemplatePlan(map[string][]catalog.ColumnRef{"lineitem": {ref("lineitem", "l_discount")}}, nil); err == nil {
		t.Fatal("expected error for unobtainable forced order")
	}
}

// slotCost prices one access method on a slot through the γ kernel,
// the way a single what-if evaluation does: the slot prepared and the
// index's geometry computed for this one call.
func slotCost(e *Engine, a Access, ix *catalog.Index) (float64, bool) {
	return e.SlotCost(&a, ix, e.IndexGeometry(ix))
}

func TestSlotScanCost(t *testing.T) {
	_, e, _ := testEnv(t)
	q := selectiveQuery(0.01)
	need := q.ColumnsOf("lineitem")
	unordered := e.ScanAccess(q, "lineitem", nil, need)
	heap, ok := slotCost(e, unordered, nil)
	if !ok || heap <= 0 {
		t.Fatalf("heap slot = %v, %v", heap, ok)
	}
	ix := &catalog.Index{Table: "lineitem", Key: []string{"l_shipdate"}}
	ic, ok := slotCost(e, unordered, ix)
	if !ok {
		t.Fatal("index slot should be feasible")
	}
	if ic >= heap {
		t.Fatalf("selective index slot %v should beat heap %v", ic, heap)
	}
	// An index that cannot deliver the required order is infeasible.
	ordered := e.ScanAccess(q, "lineitem", []catalog.ColumnRef{ref("lineitem", "l_shipdate")}, need)
	other := &catalog.Index{Table: "lineitem", Key: []string{"l_discount"}}
	if _, ok := slotCost(e, ordered, other); ok {
		t.Fatal("order-incompatible index must be rejected (γ = ∞)")
	}
	// Heap scans cannot deliver any order.
	if _, ok := slotCost(e, ordered, nil); ok {
		t.Fatal("heap scan cannot satisfy an order requirement")
	}
	// Neither can a slot on an unknown table be implemented.
	if _, ok := slotCost(e, e.ScanAccess(q, "nosuch", nil, need), nil); ok {
		t.Fatal("a slot on an unknown table must be rejected")
	}
}

func TestSlotLookupCost(t *testing.T) {
	_, e, _ := testEnv(t)
	q := &workload.Query{
		ID: "t-lkp", Tables: []string{"lineitem"},
		Select: []catalog.ColumnRef{ref("lineitem", "l_extendedprice")},
	}
	ix := &catalog.Index{Table: "lineitem", Key: []string{"l_orderkey"}}
	c1, ok := slotCost(e, e.LookupAccess(q, "lineitem", "l_orderkey", 100, q.ColumnsOf("lineitem")), ix)
	if !ok || c1 <= 0 {
		t.Fatalf("lookup slot = %v, %v", c1, ok)
	}
	c2, _ := slotCost(e, e.LookupAccess(q, "lineitem", "l_orderkey", 200, q.ColumnsOf("lineitem")), ix)
	if math.Abs(c2-2*c1) > 1e-6*c1 {
		t.Fatalf("lookup cost must scale linearly with probes: %v vs %v", c1, c2)
	}
	bare := e.LookupAccess(q, "lineitem", "l_orderkey", 100, nil)
	bad := &catalog.Index{Table: "lineitem", Key: []string{"l_shipdate"}}
	if _, ok := slotCost(e, bare, bad); ok {
		t.Fatal("non-matching index cannot implement lookup slot")
	}
	if _, ok := slotCost(e, bare, nil); ok {
		t.Fatal("heap cannot implement lookup slot")
	}
	if _, ok := slotCost(e, bare, &catalog.Index{Table: "orders", Key: []string{"o_orderkey"}}); ok {
		t.Fatal("an index on another table cannot implement lookup slot")
	}
}

func TestUpdateCosts(t *testing.T) {
	_, e, _ := testEnv(t)
	u := &workload.Update{
		ID: "u1", Table: "lineitem", SetCols: []string{"l_quantity"},
		Where: []workload.Predicate{{Col: ref("lineitem", "l_orderkey"), Op: workload.OpRange, Lo: 0.1, Hi: 0.101}},
	}
	affected := &catalog.Index{Table: "lineitem", Key: []string{"l_quantity"}}
	unaffected := &catalog.Index{Table: "lineitem", Key: []string{"l_shipdate"}}
	if c := e.UpdateCost(u, affected); c <= 0 {
		t.Fatalf("affected index ucost = %v", c)
	}
	if c := e.UpdateCost(u, unaffected); c != 0 {
		t.Fatalf("unaffected index ucost = %v, want 0", c)
	}
	if c := e.BaseUpdateCost(u); c <= 0 {
		t.Fatalf("base update cost = %v", c)
	}
}

func TestWorkloadCost(t *testing.T) {
	_, e, base := testEnv(t)
	w := workload.Hom(workload.HomConfig{Queries: 10, UpdateFraction: 0.2, Seed: 13})
	c, err := e.WorkloadCost(w, base)
	if err != nil {
		t.Fatal(err)
	}
	if c <= 0 {
		t.Fatalf("workload cost = %v", c)
	}
	// Statement costs are weighted.
	w.Statements[0].Weight = 1000
	c2, _ := e.WorkloadCost(w, base)
	if c2 <= c {
		t.Fatal("raising a weight must raise the workload cost")
	}
}

func TestSystemProfilesDiffer(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	a := New(cat, SystemA())
	b := New(cat, SystemB())
	base := NewConfig(tpch.BaselineIndexes(cat)...)
	q := selectiveQuery(0.05)
	ca, _ := a.WhatIfCost(q, base)
	cb, _ := b.WhatIfCost(q, base)
	if ca == cb {
		t.Fatal("the two system profiles should produce different costs")
	}
}

func TestHetWorkloadOptimizes(t *testing.T) {
	_, e, base := testEnv(t)
	w := workload.Het(workload.HetConfig{Queries: 60, Seed: 14})
	for _, s := range w.Queries() {
		if _, err := e.WhatIfPlan(s.Query, base); err != nil {
			t.Fatalf("%s: %v\n%s", s.Query.ID, err, s.Query)
		}
	}
}

// slotTestCandidates generates the candidates a statement could meet on
// one of its tables: the table's clustered primary key plus every
// single-column and two-column key over the columns the query touches,
// each plain and covering.
func slotTestCandidates(cat *catalog.Catalog, q *workload.Query, table string) []*catalog.Index {
	var out []*catalog.Index
	for _, ix := range cat.PrimaryKeyIndexes() {
		if ix.Table == table {
			out = append(out, ix)
		}
	}
	cols := q.ColumnsOf(table)
	add := func(key ...string) {
		var rest []string
		for _, c := range cols {
			if c != key[0] && c != key[len(key)-1] {
				rest = append(rest, c)
			}
		}
		out = append(out, &catalog.Index{Table: table, Key: key})
		if len(rest) > 0 {
			out = append(out, &catalog.Index{Table: table, Key: key, Include: rest})
		}
	}
	for _, a := range cols {
		add(a)
		for _, b := range cols {
			if a != b {
				add(a, b)
			}
		}
	}
	return out
}

// slotTestOrders returns the orders a template slot on table could
// require: none, each single column the query touches there (join
// columns among them), and the table's group-by and order-by prefixes.
func slotTestOrders(q *workload.Query, table string) [][]catalog.ColumnRef {
	orders := [][]catalog.ColumnRef{nil}
	for _, c := range q.ColumnsOf(table) {
		orders = append(orders, []catalog.ColumnRef{ref(table, c)})
	}
	for _, refs := range [][]catalog.ColumnRef{q.GroupBy, q.OrderBy} {
		n := 0
		for n < len(refs) && refs[n].Table == table {
			n++
		}
		if n > 1 {
			orders = append(orders, refs[:n])
		}
	}
	return orders
}

// TestSlotCostMatchesAccessPaths holds the γ kernel to the optimizer's
// access paths, bit for bit: INUM's Lemma 1 prices templates with one
// and fills their slots with the other, so it is exact only while they
// agree. For every statement, table, candidate and required order, a
// scan slot's SlotCost is the cheapest scanPaths node through that
// candidate delivering the order (infeasible when there is none), and a
// lookup slot's is lookupLeaf's per-probe cost scaled by the probes.
// The kernel is called as the matrix compile calls it: each slot
// prepared once, each candidate's geometry computed once and supplied
// for every slot. Secondary and clustered indexes go through both slot
// kinds. The coverage guard also counts the two sides of SlotCost's
// order precheck: ordered comparisons that only a key suffix past the
// equality-bound prefix satisfies, which a precheck of the full key
// alone would reject, and ordered comparisons no key suffix satisfies,
// which it rejects before pricing.
func TestSlotCostMatchesAccessPaths(t *testing.T) {
	cat, e, _ := testEnv(t)
	var stmts []*workload.Statement
	stmts = append(stmts, workload.Hom(workload.HomConfig{Queries: 30, Seed: 17}).Queries()...)
	stmts = append(stmts, workload.Het(workload.HetConfig{Queries: 30, Seed: 17}).Queries()...)
	scans, lookups, infeasible := 0, 0, 0
	clusteredScans, clusteredLookups := 0, 0
	suffixOnly, unreachable := 0, 0
	for _, st := range stmts {
		q := st.Query
		for _, table := range q.Tables {
			need := q.ColumnsOf(table)
			var scanSlots, lookupSlots []Access
			for _, order := range slotTestOrders(q, table) {
				scanSlots = append(scanSlots, e.ScanAccess(q, table, order, need))
			}
			const probes = 137.0
			for _, joinCol := range q.JoinColsOf(table) {
				lookupSlots = append(lookupSlots, e.LookupAccess(q, table, joinCol, probes, need))
			}
			for _, ix := range append([]*catalog.Index{nil}, slotTestCandidates(cat, q, table)...) {
				cfg := NewConfig()
				var g catalog.Geometry
				if ix != nil {
					cfg.Add(ix)
					g = ix.Geometry(cat.Table(table))
				}
				clustered := ix != nil && ix.Clustered
				paths := e.scanPaths(q, table, cfg, need)
				for i := range scanSlots {
					a := &scanSlots[i]
					want, feasible := math.Inf(1), false
					for _, n := range paths {
						if n.Index == ix && satisfiesOrder(n.Order, a.order) && n.SelfCost < want {
							want, feasible = n.SelfCost, true
						}
					}
					got, ok := e.SlotCost(a, ix, g)
					if ok != feasible || (ok && got != want) {
						t.Fatalf("%s %s via %v order %v: SlotCost = %v, %v; cheapest scan path = %v, %v",
							q.ID, table, ix, a.order, got, ok, want, feasible)
					}
					scans++
					if !ok {
						infeasible++
					} else if clustered {
						clusteredScans++
					}
					if ix != nil && len(a.order) > 0 {
						reachable := false
						for k := range ix.Key {
							reachable = reachable || keyDelivers(table, ix.Key[k:], a.order)
						}
						switch {
						case !reachable:
							unreachable++
						case ok && !keyDelivers(table, ix.Key, a.order):
							suffixOnly++
						}
					}
				}
				for i := range lookupSlots {
					a := &lookupSlots[i]
					leaf := e.lookupLeaf(q, table, cfg, a.joinCol, need)
					got, ok := e.SlotCost(a, ix, g)
					if ok != (leaf != nil) || (ok && got != probes*leaf.SelfCost*e.Prof.NLFudge) {
						t.Fatalf("%s %s via %v on %s: SlotCost = %v, %v; lookup leaf = %+v",
							q.ID, table, ix, a.joinCol, got, ok, leaf)
					}
					lookups++
					if !ok {
						infeasible++
					} else if clustered {
						clusteredLookups++
					}
				}
			}
		}
	}
	if scans < 1000 || lookups < 100 || infeasible == 0 || infeasible == scans+lookups || clusteredScans == 0 || clusteredLookups == 0 ||
		suffixOnly == 0 || unreachable == 0 {
		t.Fatalf("degenerate coverage: %d scan and %d lookup comparisons (%d and %d feasible through clustered indexes), %d infeasible; "+
			"%d ordered scans only a key suffix delivers, %d no key suffix delivers",
			scans, lookups, clusteredScans, clusteredLookups, infeasible, suffixOnly, unreachable)
	}
	t.Logf("%d ordered scans only a key suffix delivers, %d no key suffix delivers", suffixOnly, unreachable)
}

// TestDPEntryIsPlainData pins the join DP's entries to plain data: no
// field of dpEntry, at any depth, is a pointer, string, slice, map,
// interface, function or channel. Entries name their path, order and
// join condition by number, so storing one is a plain copy and pooled
// DP tables pin nothing.
func TestDPEntryIsPlainData(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("dpEntry", reflect.TypeOf(dpEntry{}))
}

// TestUnionKeepsIndexOrder: a union lists each table's indexes in the
// receiver's order, then the argument's new ones in the argument's
// order, on every call. The optimizer breaks cost ties by that order,
// so a union built twice must plan alike.
func TestUnionKeepsIndexOrder(t *testing.T) {
	cat, _, _ := testEnv(t)
	var mine, theirs []*catalog.Index
	for i, c := range cat.Table("lineitem").Cols {
		ix := &catalog.Index{Table: "lineitem", Key: []string{c.Name}}
		if i%3 != 2 {
			mine = append(mine, ix)
		}
		if i%3 != 0 {
			theirs = append(theirs, ix)
		}
	}
	mine = append(mine, &catalog.Index{Table: "orders", Key: []string{"o_orderdate"}})
	theirs = append(theirs, &catalog.Index{Table: "orders", Key: []string{"o_custkey"}})
	a, b := NewConfig(mine...), NewConfig(theirs...)
	for _, table := range []string{"lineitem", "orders"} {
		want := slices.Clone(a.OnTable(table))
		for _, ix := range b.OnTable(table) {
			if !a.Has(ix) {
				want = append(want, ix)
			}
		}
		for run := 0; run < 20; run++ {
			if got := a.Union(b).OnTable(table); !slices.Equal(got, want) {
				t.Fatalf("run %d: union lists %s as %v, want %v", run, table, got, want)
			}
		}
	}
	if got := a.Union(nil).OnTable("lineitem"); !slices.Equal(got, a.OnTable("lineitem")) {
		t.Fatalf("union with nil lists %v, want %v", got, a.OnTable("lineitem"))
	}
}
