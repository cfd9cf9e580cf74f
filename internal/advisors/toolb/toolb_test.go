package toolb

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/tpch"
	"repro/internal/workload"
)

func TestSamplingDeterministicPerSeed(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	eng := engine.New(cat, engine.SystemA())
	w := workload.Hom(workload.HomConfig{Queries: 80, Seed: 130})
	budget := float64(cat.TotalBytes())
	r1, err := New(cat, eng, Options{Seed: 5}).Recommend(w, budget)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(cat, eng, Options{Seed: 5}).Recommend(w, budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Indexes) != len(r2.Indexes) {
		t.Fatalf("same seed, different results: %d vs %d", len(r1.Indexes), len(r2.Indexes))
	}
	for i := range r1.Indexes {
		if r1.Indexes[i].ID() != r2.Indexes[i].ID() {
			t.Fatal("same seed, different indexes")
		}
	}
}

func TestSmallWorkloadNotSampled(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	eng := engine.New(cat, engine.SystemA())
	w := workload.Hom(workload.HomConfig{Queries: 10, Seed: 131})
	res, err := New(cat, eng, Options{}).Recommend(w, float64(cat.TotalBytes()))
	if err != nil {
		t.Fatal(err)
	}
	if res.SampledStatements != 10 {
		t.Fatalf("sample = %d, want the full 10", res.SampledStatements)
	}
}

func TestBudgetZeroSelectsNothing(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	eng := engine.New(cat, engine.SystemA())
	w := workload.Hom(workload.HomConfig{Queries: 20, Seed: 132})
	res, err := New(cat, eng, Options{}).Recommend(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indexes) != 0 {
		t.Fatalf("zero budget must select nothing, got %d", len(res.Indexes))
	}
}

func TestUpdatesCountAgainstBenefit(t *testing.T) {
	// A pure-update workload offers no index benefit; Tool-B should
	// recommend little or nothing.
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	eng := engine.New(cat, engine.SystemA())
	w := &workload.Workload{Name: "updates-only"}
	gen := workload.Hom(workload.HomConfig{Queries: 5, UpdateFraction: 4, Seed: 133})
	for _, st := range gen.Updates() {
		w.Statements = append(w.Statements, st)
	}
	res, err := New(cat, eng, Options{}).Recommend(w, float64(cat.TotalBytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indexes) > 2 {
		t.Fatalf("update-only workload yielded %d indexes", len(res.Indexes))
	}
}
