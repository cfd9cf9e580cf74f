package inum

import (
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/workload"
)

// TestCollidingIDsPriceLikeFreshCache: two generated workloads reuse the
// same statement IDs for different statements. A cache that has priced
// the first must price every statement of the second exactly as a cache
// that never saw the first — the cache remembers shapes, never IDs.
func TestCollidingIDsPriceLikeFreshCache(t *testing.T) {
	eng, cache, base := testSetup(t)
	cfgs := []*engine.Config{
		base,
		base.Union(engine.NewConfig(
			&catalog.Index{Table: "lineitem", Key: []string{"l_shipdate"}, Include: []string{"l_extendedprice", "l_discount"}},
			&catalog.Index{Table: "orders", Key: []string{"o_orderdate", "o_custkey"}},
			&catalog.Index{Table: "part", Key: []string{"p_brand", "p_size"}},
		)),
	}
	first := workload.Hom(workload.HomConfig{Queries: 30, Seed: 1})
	second := workload.Hom(workload.HomConfig{Queries: 30, Seed: 2})
	for _, st := range first.Statements {
		if _, err := cache.StatementCost(st, cfgs[1]); err != nil {
			t.Fatal(err)
		}
	}

	fresh := New(eng)
	collided, differ := 0, 0
	ids := map[string]bool{}
	for _, st := range first.Statements {
		ids[st.ID()] = true
	}
	for _, st := range second.Statements {
		if ids[st.ID()] {
			collided++
		}
		wrong := false
		for _, cfg := range cfgs {
			got, err := cache.StatementCost(st, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.StatementCost(st, cfg)
			if err != nil {
				t.Fatal(err)
			}
			wrong = wrong || math.Float64bits(got) != math.Float64bits(want)
			if st.Query != nil {
				gotQ, _ := cache.Cost(st.Query, cfg)
				wantQ, _ := fresh.Cost(st.Query, cfg)
				wrong = wrong || math.Float64bits(gotQ) != math.Float64bits(wantQ)
			}
		}
		if wrong {
			differ++
		}
	}
	if collided == 0 {
		t.Fatal("fixture broken: the two workloads share no statement ID")
	}
	if differ != 0 {
		t.Fatalf("%d of %d statements under a reused ID priced differently from a fresh cache", differ, second.Size())
	}
}
