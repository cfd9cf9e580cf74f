package ilp

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/tpch"
	"repro/internal/workload"
)

func TestEnumerationGrowsWithCandidates(t *testing.T) {
	// ILP's defining weakness: enumerated configurations scale with
	// the per-table candidate lists.
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	eng := engine.New(cat, engine.SystemA())
	w := workload.Hom(workload.HomConfig{Queries: 15, Seed: 110})
	s := cophy.Candidates(cat, w, cophy.CGenOptions{Covering: true})
	// At most two candidates per table.
	var few []*catalog.Index
	perTable := map[string]int{}
	for _, ix := range s {
		if perTable[ix.Table] < 2 {
			perTable[ix.Table]++
			few = append(few, ix)
		}
	}

	rs, err := New(cat, eng, nil, Options{}).Recommend(w, few, float64(cat.TotalBytes()))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := New(cat, eng, nil, Options{}).Recommend(w, s, float64(cat.TotalBytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rb.Configs <= rs.Configs {
		t.Fatalf("configs should grow with the candidates (%d vs %d): %d vs %d", len(few), len(s), rs.Configs, rb.Configs)
	}
}

func TestPruningKeepsEmptyConfig(t *testing.T) {
	// Even with PerQuery=1 the model must remain feasible (the empty
	// configuration is retained), so a zero budget still solves.
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	eng := engine.New(cat, engine.SystemA())
	w := workload.Hom(workload.HomConfig{Queries: 10, Seed: 111})
	s := cophy.Candidates(cat, w, cophy.CGenOptions{})
	ad := New(cat, eng, nil, Options{PerQuery: 1})
	res, err := ad.Recommend(w, s, 0) // zero budget: nothing fits
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indexes) != 0 {
		t.Fatalf("zero budget must select nothing, got %v", res.Indexes)
	}
	if res.EstCost <= 0 {
		t.Fatalf("est cost = %v", res.EstCost)
	}
}

func TestQualityComparableToCoPhy(t *testing.T) {
	// §5.3: the perf metric is "very similar for the two techniques"
	// (CoPhy slightly better by 4-10%). ILP must land in CoPhy's
	// ballpark, just slower.
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	eng := engine.New(cat, engine.SystemA())
	base := engine.NewConfig(tpch.BaselineIndexes(cat)...)
	w := workload.Hom(workload.HomConfig{Queries: 25, Seed: 112})
	s := cophy.Candidates(cat, w, cophy.CGenOptions{Covering: true})
	budget := float64(cat.TotalBytes())

	adv := cophy.NewAdvisor(cat, eng, cophy.Options{GapTol: 0.03, RootIters: 200, MaxNodes: 48})
	co, err := adv.Recommend(w, s, cophy.Constraints{BudgetBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	il := New(cat, eng, adv.Inum, Options{GapTol: 0.03})
	ir, err := il.Recommend(w, s, budget)
	if err != nil {
		t.Fatal(err)
	}

	baseCost, _ := eng.WorkloadCost(w, base)
	coCost, _ := eng.WorkloadCost(w, base.Union(engine.NewConfig(co.Indexes...)))
	ilCost, _ := eng.WorkloadCost(w, base.Union(engine.NewConfig(ir.Indexes...)))
	coImp := 1 - coCost/baseCost
	ilImp := 1 - ilCost/baseCost
	if ilImp <= 0 {
		t.Fatalf("ILP produced no improvement: %v", ilImp)
	}
	// CoPhy within striking distance or better; ILP not catastrophic.
	if ilImp < coImp*0.6 {
		t.Fatalf("ILP quality too far behind CoPhy: %.1f%% vs %.1f%%", ilImp*100, coImp*100)
	}
}
