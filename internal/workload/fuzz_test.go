package workload_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// FuzzParse: Parse never panics or hangs, and every query it accepts
// (each SELECT, and each UPDATE's query shell) is one the optimizer
// plans to a finite cost under the empty configuration. A statement
// the parser acknowledges is a statement the advisor can price.
func FuzzParse(f *testing.F) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.01})
	eng := engine.New(cat, engine.SystemA())
	seeds := workload.Hom(workload.HomConfig{Queries: len(workload.Templates()), UpdateFraction: 0.2, Seed: 1})
	for _, s := range seeds.Statements {
		f.Add(s.String() + ";")
	}
	f.Add("SELECT r_name FROM region, nation, supplier, customer, orders, lineitem, part, partsupp" +
		strings.Repeat(", nation", 5) + ";")
	f.Add("SELECT n_name FROM nation, nation WHERE n_nationkey = n_regionkey;")
	// Constants no histogram can place; the parser once accepted them.
	f.Add("SELECT l_quantity FROM lineitem WHERE l_quantity < :NaN;")
	f.Add("UPDATE orders SET o_comment = :v WHERE o_totalprice BETWEEN :0.1 AND :Inf WEIGHT 2;")

	f.Fuzz(func(t *testing.T, text string) {
		w, err := workload.Parse(cat, text)
		if err != nil {
			return
		}
		for _, st := range w.Queries() {
			cost, err := eng.WhatIfCost(st.Query, engine.NewConfig())
			if err != nil {
				t.Fatalf("accepted %q but cannot plan it: %v", st.Query, err)
			}
			if math.IsNaN(cost) || math.IsInf(cost, 0) {
				t.Fatalf("accepted %q but it costs %v", st.Query, cost)
			}
		}
	})
}
