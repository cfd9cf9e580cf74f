package inum

import (
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/tpch"
	"repro/internal/workload"
)

func testSetup(t *testing.T) (*engine.Engine, *Cache, *engine.Config) {
	t.Helper()
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	eng := engine.New(cat, engine.SystemA())
	return eng, New(eng), engine.NewConfig(tpch.BaselineIndexes(cat)...)
}

func ref(tb, c string) catalog.ColumnRef { return catalog.ColumnRef{Table: tb, Column: c} }

func TestPrepareBuildsTemplates(t *testing.T) {
	_, cache, _ := testSetup(t)
	w := workload.Hom(workload.HomConfig{Queries: 15, Seed: 20})
	cache.Prepare(w)
	for _, s := range w.Queries() {
		qi := cache.PrepareQuery(s.Query)
		if len(qi.Templates) == 0 {
			t.Fatalf("%s has no templates", s.Query.ID)
		}
		if len(qi.Templates) > cache.maxTemplates {
			t.Fatalf("%s has %d templates, cap %d", s.Query.ID, len(qi.Templates), cache.maxTemplates)
		}
		// One template must be instantiable by the empty configuration.
		hasFallback := false
		for _, tpl := range qi.Templates {
			if tpl.isFallback() {
				hasFallback = true
			}
			if len(tpl.Slots) != len(s.Query.Tables) {
				t.Fatalf("%s: template has %d slots for %d tables", s.Query.ID, len(tpl.Slots), len(s.Query.Tables))
			}
		}
		if !hasFallback {
			t.Fatalf("%s lacks a fallback template", s.Query.ID)
		}
	}
	if cache.PrepStats() == 0 {
		t.Fatal("Prepare should record optimizer calls")
	}
}

// TestPrepStatsCountsEveryOptimizerCall: PrepStats counts each what-if
// call a derivation makes, the failed ones included, so it moves in
// step with the engine's own counter. The hand-built 13-table query
// fails every call (the parser rejects it, but a query built in code
// still reaches the cache).
func TestPrepStatsCountsEveryOptimizerCall(t *testing.T) {
	eng, cache, _ := testSetup(t)
	wide := &workload.Query{ID: "wide", Tables: []string{"region"}, Select: []catalog.ColumnRef{ref("region", "r_name")}}
	for len(wide.Tables) <= workload.MaxTables {
		wide.Tables = append(wide.Tables, "nation")
	}
	for _, tc := range []struct {
		name string
		w    *workload.Workload
	}{
		{"hom", workload.Hom(workload.HomConfig{Queries: 40, Seed: 21})},
		{"het", workload.Het(workload.HetConfig{Queries: 40, Seed: 22})},
		{"13 tables", &workload.Workload{Statements: []*workload.Statement{{Query: wide, Weight: 1}}}},
	} {
		prep, calls := cache.PrepStats(), eng.WhatIfCalls()
		cache.Prepare(tc.w)
		dPrep, dCalls := cache.PrepStats()-prep, eng.WhatIfCalls()-calls
		if dPrep == 0 || dPrep != dCalls {
			t.Errorf("%s: PrepStats moved %d, WhatIfCalls %d", tc.name, dPrep, dCalls)
		}
	}
	if n := len(cache.PrepareQuery(wide).Templates); n != 0 {
		t.Errorf("13-table query got %d templates", n)
	}
}

func TestCostNeverBelowOptimal(t *testing.T) {
	// INUM restricts the plan space to cached templates, so its cost
	// approximation is an upper bound on the optimizer's true optimum.
	eng, cache, base := testSetup(t)
	w := workload.Hom(workload.HomConfig{Queries: 30, Seed: 21})
	cache.Prepare(w)
	cfgs := []*engine.Config{
		base,
		base.Union(engine.NewConfig(&catalog.Index{Table: "lineitem", Key: []string{"l_shipdate"}, Include: []string{"l_extendedprice", "l_discount"}})),
		base.Union(engine.NewConfig(
			&catalog.Index{Table: "orders", Key: []string{"o_orderdate"}},
			&catalog.Index{Table: "customer", Key: []string{"c_mktsegment"}},
		)),
	}
	for _, s := range w.Queries() {
		for _, cfg := range cfgs {
			inumCost, err := cache.Cost(s.Query, cfg)
			if err != nil {
				t.Fatalf("%s: %v", s.Query.ID, err)
			}
			opt, err := eng.WhatIfCost(s.Query, cfg)
			if err != nil {
				t.Fatalf("%s: %v", s.Query.ID, err)
			}
			if inumCost < opt*(1-1e-6) {
				t.Fatalf("%s: INUM cost %v below optimal %v", s.Query.ID, inumCost, opt)
			}
			if inumCost > opt*25 {
				t.Fatalf("%s: INUM cost %v wildly above optimal %v", s.Query.ID, inumCost, opt)
			}
		}
	}
}

func TestCostImprovesWithIndexes(t *testing.T) {
	_, cache, base := testSetup(t)
	q := &workload.Query{
		ID:     "i-sel",
		Tables: []string{"lineitem"},
		Select: []catalog.ColumnRef{ref("lineitem", "l_extendedprice")},
		Preds: []workload.Predicate{
			{Col: ref("lineitem", "l_shipdate"), Op: workload.OpRange, Lo: 0.3, Hi: 0.31},
		},
	}
	before, err := cache.Cost(q, base)
	if err != nil {
		t.Fatal(err)
	}
	ix := &catalog.Index{Table: "lineitem", Key: []string{"l_shipdate"}, Include: []string{"l_extendedprice"}}
	after, err := cache.Cost(q, base.Union(engine.NewConfig(ix)))
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("index should reduce INUM cost: %v -> %v", before, after)
	}
}

func TestCostMonotoneInConfig(t *testing.T) {
	// Property: adding indexes never increases the INUM cost (min over
	// a larger atomic-configuration set).
	_, cache, base := testSetup(t)
	w := workload.Hom(workload.HomConfig{Queries: 15, Seed: 22})
	cache.Prepare(w)
	extra := []*catalog.Index{
		{Table: "lineitem", Key: []string{"l_shipdate"}},
		{Table: "lineitem", Key: []string{"l_partkey"}, Include: []string{"l_extendedprice"}},
		{Table: "orders", Key: []string{"o_orderdate", "o_custkey"}},
		{Table: "part", Key: []string{"p_brand", "p_size"}},
	}
	for _, s := range w.Queries() {
		cfg := base
		prev := math.Inf(1)
		for i := 0; i <= len(extra); i++ {
			if i > 0 {
				cfg = cfg.Union(engine.NewConfig(extra[i-1]))
			}
			cost, err := cache.Cost(s.Query, cfg)
			if err != nil {
				t.Fatalf("%s: %v", s.Query.ID, err)
			}
			if cost > prev*1.000001 {
				t.Fatalf("%s: cost grew from %v to %v when adding index", s.Query.ID, prev, cost)
			}
			prev = cost
		}
	}
}

func TestLinearComposability(t *testing.T) {
	// Definition 1: cost(q, X) computed by INUM equals the minimum
	// over (k, A) of β_qk + Σ_i γ_qkia with A ranging over atomic
	// configurations of X. We verify by brute-force enumeration of
	// atomic configurations.
	_, cache, base := testSetup(t)
	q := &workload.Query{
		ID:     "i-join",
		Tables: []string{"orders", "lineitem"},
		Select: []catalog.ColumnRef{ref("lineitem", "l_extendedprice"), ref("orders", "o_orderdate")},
		Joins:  []workload.Join{{Left: ref("lineitem", "l_orderkey"), Right: ref("orders", "o_orderkey")}},
		Preds: []workload.Predicate{
			{Col: ref("orders", "o_orderdate"), Op: workload.OpRange, Lo: 0.2, Hi: 0.24},
		},
	}
	ixs := []*catalog.Index{
		{Table: "orders", Key: []string{"o_orderdate"}},
		{Table: "lineitem", Key: []string{"l_orderkey"}, Include: []string{"l_extendedprice"}},
	}
	cfg := base.Union(engine.NewConfig(ixs...))
	got, err := cache.Cost(q, cfg)
	if err != nil {
		t.Fatal(err)
	}

	qi := cache.PrepareQuery(q)
	// Brute force: per template, independent slot minima equal the
	// minimum over atomic configurations because slots touch distinct
	// tables.
	want := math.Inf(1)
	for ti, tpl := range qi.Templates {
		total := tpl.Internal
		ok := true
		for si := range tpl.Slots {
			slotBest := math.Inf(1)
			if g, feasible := cache.Gamma(qi, ti, si, nil); feasible {
				slotBest = g
			}
			for _, ix := range cfg.OnTable(tpl.Slots[si].Table) {
				if g, feasible := cache.Gamma(qi, ti, si, ix); feasible && g < slotBest {
					slotBest = g
				}
			}
			if math.IsInf(slotBest, 1) {
				ok = false
				break
			}
			total += slotBest
		}
		if ok && total < want {
			want = total
		}
	}
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("Cost = %v, brute force = %v", got, want)
	}
}

// TestGammaRepeatable: γ is a pure function of (template, slot, index)
// — the same probe twice gives the same answer without ever reaching
// the optimizer.
func TestGammaRepeatable(t *testing.T) {
	eng, cache, _ := testSetup(t)
	q := &workload.Query{
		ID:     "i-memo",
		Tables: []string{"orders"},
		Select: []catalog.ColumnRef{ref("orders", "o_totalprice")},
		Preds:  []workload.Predicate{{Col: ref("orders", "o_orderdate"), Op: workload.OpEq, Lo: 0.4}},
	}
	qi := cache.PrepareQuery(q)
	ix := &catalog.Index{Table: "orders", Key: []string{"o_orderdate"}}
	v1, ok1 := cache.Gamma(qi, 0, 0, ix)
	calls := eng.WhatIfCalls()
	v2, ok2 := cache.Gamma(qi, 0, 0, ix)
	if v1 != v2 || ok1 != ok2 {
		t.Fatalf("repeated gamma differs: %v/%v vs %v/%v", v1, ok1, v2, ok2)
	}
	if eng.WhatIfCalls() != calls {
		t.Fatal("Gamma must not invoke the optimizer")
	}
}

func TestNoWhatIfCallsAfterPrepare(t *testing.T) {
	eng, cache, base := testSetup(t)
	w := workload.Hom(workload.HomConfig{Queries: 15, Seed: 23})
	cache.Prepare(w)
	// Evaluating costs for new configurations must be optimizer-free:
	// that is INUM's whole point.
	calls := eng.WhatIfCalls()
	cfg := base.Union(engine.NewConfig(&catalog.Index{Table: "lineitem", Key: []string{"l_shipdate"}}))
	if _, err := cache.WorkloadCost(w, cfg); err != nil {
		t.Fatal(err)
	}
	if eng.WhatIfCalls() != calls {
		t.Fatalf("WorkloadCost made %d optimizer calls", eng.WhatIfCalls()-calls)
	}
}

func TestUpdateStatementCost(t *testing.T) {
	_, cache, base := testSetup(t)
	u := &workload.Update{
		ID: "i-upd", Table: "lineitem", SetCols: []string{"l_quantity"},
		Where: []workload.Predicate{{Col: ref("lineitem", "l_orderkey"), Op: workload.OpRange, Lo: 0.5, Hi: 0.501}},
	}
	s := &workload.Statement{Update: u, Weight: 1}
	c0, err := cache.StatementCost(s, base)
	if err != nil {
		t.Fatal(err)
	}
	// An affected index adds maintenance cost that outweighs any
	// benefit to the narrow shell query.
	wide := base.Union(engine.NewConfig(&catalog.Index{Table: "lineitem", Key: []string{"l_quantity"}}))
	c1, err := cache.StatementCost(s, wide)
	if err != nil {
		t.Fatal(err)
	}
	if c1 <= c0 {
		t.Fatalf("affected index should raise update cost: %v -> %v", c0, c1)
	}
}

func TestHetWorkloadCoverage(t *testing.T) {
	eng, cache, base := testSetup(t)
	w := workload.Het(workload.HetConfig{Queries: 40, Seed: 24})
	cache.Prepare(w)
	for _, s := range w.Queries() {
		inumCost, err := cache.Cost(s.Query, base)
		if err != nil {
			t.Fatalf("%s: %v", s.Query.ID, err)
		}
		opt, _ := eng.WhatIfCost(s.Query, base)
		if inumCost < opt*(1-1e-6) {
			t.Fatalf("%s: INUM %v below optimal %v", s.Query.ID, inumCost, opt)
		}
	}
}
