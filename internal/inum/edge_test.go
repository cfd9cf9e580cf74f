package inum

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// TestPrepareIdempotent: preparing the same query twice must not
// duplicate templates or optimizer calls.
func TestPrepareIdempotent(t *testing.T) {
	eng, cache, _ := testSetup(t)
	q := &workload.Query{
		ID:     "e-idem",
		Tables: []string{"orders"},
		Select: []catalog.ColumnRef{ref("orders", "o_totalprice")},
		Preds:  []workload.Predicate{{Col: ref("orders", "o_orderdate"), Op: workload.OpLt, Hi: 0.3}},
	}
	qi1 := cache.PrepareQuery(q)
	calls := eng.WhatIfCalls()
	qi2 := cache.PrepareQuery(q)
	if !sameTemplates(qi1.Templates, qi2.Templates) {
		t.Fatal("PrepareQuery must return the cached template set")
	}
	if eng.WhatIfCalls() != calls {
		t.Fatal("re-preparation must not call the optimizer")
	}
}

// TestConcurrentPrepare: racing goroutines on one cache must settle on
// a single entry per query without data races.
func TestConcurrentPrepare(t *testing.T) {
	_, cache, base := testSetup(t)
	w := workload.Hom(workload.HomConfig{Queries: 20, Seed: 40})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, st := range w.Queries() {
				if _, err := cache.Cost(st.Query, base); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTemplateCapRespected: a pathological many-order query must not
// exceed maxTemplates.
func TestTemplateCapRespected(t *testing.T) {
	_, cache, _ := testSetup(t)
	cache.maxTemplates = 4
	q := &workload.Query{
		ID:     "e-cap",
		Tables: []string{"lineitem", "orders", "customer"},
		Select: []catalog.ColumnRef{ref("lineitem", "l_extendedprice")},
		Joins: []workload.Join{
			{Left: ref("lineitem", "l_orderkey"), Right: ref("orders", "o_orderkey")},
			{Left: ref("orders", "o_custkey"), Right: ref("customer", "c_custkey")},
		},
		GroupBy:   []catalog.ColumnRef{ref("customer", "c_mktsegment")},
		Aggregate: true,
	}
	qi := cache.PrepareQuery(q)
	if len(qi.Templates) > 4 {
		t.Fatalf("templates = %d, cap 4", len(qi.Templates))
	}
}

// TestGammaInfeasibleStaysInfeasible: infeasible γ (wrong table, wrong
// order) reports γ = ∞ on every probe.
func TestGammaInfeasibleStaysInfeasible(t *testing.T) {
	_, cache, _ := testSetup(t)
	q := &workload.Query{
		ID:     "e-inf",
		Tables: []string{"orders"},
		Select: []catalog.ColumnRef{ref("orders", "o_totalprice")},
	}
	qi := cache.PrepareQuery(q)
	wrongTable := &catalog.Index{Table: "lineitem", Key: []string{"l_shipdate"}}
	if _, ok := cache.Gamma(qi, 0, 0, wrongTable); ok {
		t.Fatal("index on another table cannot fill the slot")
	}
	if _, ok := cache.Gamma(qi, 0, 0, wrongTable); ok {
		t.Fatal("infeasibility lost on the second probe")
	}
}

// TestCostAgainstSkewedEngine: INUM stays an upper bound under skew.
func TestCostAgainstSkewedEngine(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05, Skew: 2})
	eng := engine.New(cat, engine.SystemA())
	cache := New(eng)
	base := engine.NewConfig(tpch.BaselineIndexes(cat)...)
	w := workload.Hom(workload.HomConfig{Queries: 20, Seed: 41})
	cache.Prepare(w)
	cfg := base.Union(engine.NewConfig(
		&catalog.Index{Table: "orders", Key: []string{"o_orderdate"}, Include: []string{"o_totalprice"}},
	))
	for _, st := range w.Queries() {
		inumCost, err := cache.Cost(st.Query, cfg)
		if err != nil {
			t.Fatal(err)
		}
		opt, _ := eng.WhatIfCost(st.Query, cfg)
		if inumCost < opt*(1-1e-6) {
			t.Fatalf("%s: INUM %v below optimal %v under skew", st.Query.ID, inumCost, opt)
		}
		if math.IsInf(inumCost, 0) {
			t.Fatalf("%s: infinite INUM cost", st.Query.ID)
		}
	}
}

// TestWorkloadCostMatchesStatementSum: WorkloadCost is the weighted
// sum of StatementCost.
func TestWorkloadCostMatchesStatementSum(t *testing.T) {
	_, cache, base := testSetup(t)
	w := workload.Hom(workload.HomConfig{Queries: 8, UpdateFraction: 0.25, Seed: 42})
	total, err := cache.WorkloadCost(w, base)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, st := range w.Statements {
		c, err := cache.StatementCost(st, base)
		if err != nil {
			t.Fatal(err)
		}
		sum += st.Weight * c
	}
	if math.Abs(total-sum) > 1e-9*sum {
		t.Fatalf("WorkloadCost %v != Σ weighted statements %v", total, sum)
	}
}

// hypotheticalIndexes calls emit with n distinct lineitem indexes: the
// ordered 1- to 4-column keys over the table's columns, in a fixed
// order. Nothing is retained here, so a caller measuring heap sees only
// what its emit keeps.
func hypotheticalIndexes(cat *catalog.Catalog, n int, emit func(*catalog.Index)) {
	cols := cat.Table("lineitem").Cols
	var key []string
	var walk func(depth int)
	walk = func(depth int) {
		for _, c := range cols {
			if n == 0 {
				return
			}
			dup := false
			for _, k := range key {
				dup = dup || k == c.Name
			}
			if dup {
				continue
			}
			key = append(key, c.Name)
			if len(key) == depth {
				emit(&catalog.Index{Table: "lineitem", Key: append([]string(nil), key...)})
				n--
			} else {
				walk(depth)
			}
			key = key[:len(key)-1]
		}
	}
	for depth := 1; depth <= 4 && n > 0; depth++ {
		walk(depth)
	}
}

// TestWhatIfMemoryBounded: pricing one cached statement under 10 000
// distinct hypothetical indexes — a client sweeping /whatif — leaves
// nothing behind in the cache, and every price equals what a fresh
// cache and the dense matrix compute.
func TestWhatIfMemoryBounded(t *testing.T) {
	eng, cache, base := testSetup(t)
	cat := eng.Cat
	const n = 10000
	st := &workload.Statement{Weight: 1, Query: &workload.Query{
		ID:     "e-sweep",
		Tables: []string{"orders", "lineitem"},
		Select: []catalog.ColumnRef{ref("lineitem", "l_extendedprice"), ref("orders", "o_orderdate")},
		Joins:  []workload.Join{{Left: ref("lineitem", "l_orderkey"), Right: ref("orders", "o_orderkey")}},
		Preds: []workload.Predicate{
			{Col: ref("lineitem", "l_shipdate"), Op: workload.OpRange, Lo: 0.2, Hi: 0.3},
			{Col: ref("orders", "o_orderdate"), Op: workload.OpRange, Lo: 0.2, Hi: 0.24},
		},
	}}
	price := func(c *Cache, ix *catalog.Index) float64 {
		cfg := engine.NewConfig(base.Indexes()...)
		cfg.Add(ix)
		v, err := c.StatementCost(st, cfg)
		if err != nil {
			t.Fatalf("%s: %v", ix.ID(), err)
		}
		return v
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	// Warm-up outside the measurement: templates derived, engine-side
	// per-query state built, the costs slice allocated.
	costs := make([]float64, 0, n)
	hypotheticalIndexes(cat, 100, func(ix *catalog.Index) { price(cache, ix) })

	before := heap()
	hypotheticalIndexes(cat, n, func(ix *catalog.Index) { costs = append(costs, price(cache, ix)) })
	after := heap()
	runtime.KeepAlive(cache)
	if len(costs) != n {
		t.Fatalf("generated %d indexes, want %d", len(costs), n)
	}
	// A per-(template, slot, index) memo entry is ≥ 48 bytes, so even one
	// lineitem slot would retain ~½ MB here; the bound is far below that
	// and far above allocator noise.
	if grown := int64(after) - int64(before); grown > 64<<10 {
		t.Fatalf("cache retained %d bytes after %d distinct what-if indexes", grown, n)
	}

	// Same prices from the dense matrix over all n candidates at once…
	var s []*catalog.Index
	hypotheticalIndexes(cat, n, func(ix *catalog.Index) { s = append(s, ix) })
	w := &workload.Workload{Statements: []*workload.Statement{st}}
	qm := cache.CompileMatrix(w, s, base, 0).Query(st.Query)
	none := make([]bool, n)
	distinct := map[float64]bool{}
	for i := range s {
		got, ok := qm.CostDelta(none, int32(i))
		if !ok || math.Abs(got-costs[i]) > 1e-9*costs[i] {
			t.Fatalf("%s: matrix %v (ok=%v) vs cache %v", s[i].ID(), got, ok, costs[i])
		}
		distinct[costs[i]] = true
	}
	if len(distinct) < 10 {
		t.Fatalf("sweep degenerate: only %d distinct prices", len(distinct))
	}
	// …and from caches that have never priced anything else.
	for i := 0; i < n; i += 500 {
		if got := price(New(eng), s[i]); math.Abs(got-costs[i]) > 1e-9*costs[i] {
			t.Fatalf("%s: fresh cache %v vs swept cache %v", s[i].ID(), got, costs[i])
		}
	}
}
