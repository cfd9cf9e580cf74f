// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation (run via the experiments package at
// a reduced scale so `go test -bench=.` completes in minutes), plus
// micro-benchmarks of the substrates and ablation benchmarks for the
// design choices DESIGN.md calls out. `go run ./cmd/experiments -scale 1`
// regenerates the full-scale numbers; committing them as checked claims
// is ROADMAP item 6(b).
package repro

import (
	"testing"

	"repro/internal/advisors/ilp"
	"repro/internal/catalog"
	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/inum"
	"repro/internal/lagrange"
	"repro/internal/lp"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// benchScale keeps the per-iteration work of the table/figure
// benchmarks around a few seconds.
const benchScale = 0.05

func runExp(b *testing.B, name string) {
	b.Helper()
	cfg := experiments.Config{Scale: benchScale, Seed: 42, GapTol: 0.05}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(name, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkTable1(b *testing.B)   { runExp(b, "table1") }
func BenchmarkFigure4(b *testing.B)  { runExp(b, "figure4") }
func BenchmarkFigure5(b *testing.B)  { runExp(b, "figure5") }
func BenchmarkFigure6a(b *testing.B) { runExp(b, "figure6a") }
func BenchmarkFigure6b(b *testing.B) { runExp(b, "figure6b") }
func BenchmarkFigure6c(b *testing.B) { runExp(b, "figure6c") }
func BenchmarkFigure7(b *testing.B)  { runExp(b, "figure7") }
func BenchmarkFigure8(b *testing.B)  { runExp(b, "figure8") }
func BenchmarkFigure9(b *testing.B)  { runExp(b, "figure9") }
func BenchmarkFigure10(b *testing.B) { runExp(b, "figure10") }
func BenchmarkSkewZ1(b *testing.B)   { runExp(b, "skewz1") }

// --- Substrate micro-benchmarks ---

// BenchmarkWhatIfOptimize measures one raw what-if optimization of a
// five-way join query — the unit of work INUM amortizes.
func BenchmarkWhatIfOptimize(b *testing.B) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 1})
	eng := engine.New(cat, engine.SystemA())
	base := engine.NewConfig(tpch.BaselineIndexes(cat)...)
	w := workload.Hom(workload.HomConfig{Queries: 15, Seed: 1})
	var q *workload.Query
	for _, st := range w.Queries() {
		if len(st.Query.Tables) >= 4 {
			q = st.Query
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.WhatIfCost(q, base); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkINUMCost measures the INUM-cached cost evaluation that
// replaces a what-if call — the speedup that makes Theorem 1 usable.
func BenchmarkINUMCost(b *testing.B) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 1})
	eng := engine.New(cat, engine.SystemA())
	base := engine.NewConfig(tpch.BaselineIndexes(cat)...)
	cache := inum.New(eng)
	w := workload.Hom(workload.HomConfig{Queries: 15, Seed: 1})
	cache.Prepare(w)
	q := w.Queries()[2].Query
	cfg := base.Union(engine.NewConfig(&catalog.Index{Table: "lineitem", Key: []string{"l_shipdate"}}))
	if _, err := cache.Cost(q, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Cost(q, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostMatrixCompile measures dense γ-slab compilation for a
// 30-query workload over its full candidate set — the one-off cost
// BIPGen pays to replace per-coefficient γ probes.
func BenchmarkCostMatrixCompile(b *testing.B) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 1})
	eng := engine.New(cat, engine.SystemA())
	base := engine.NewConfig(tpch.BaselineIndexes(cat)...)
	w := workload.Hom(workload.HomConfig{Queries: 30, Seed: 6})
	cache := inum.New(eng)
	cache.Prepare(w)
	s := cophy.Candidates(cat, w, cophy.CGenOptions{Covering: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.CompileMatrix(w, s, base, 0)
	}
}

// BenchmarkCostMatrixEval measures one dense cost(q, X) evaluation —
// the inner loop of ILP enumeration and any matrix-backed search.
func BenchmarkCostMatrixEval(b *testing.B) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 1})
	eng := engine.New(cat, engine.SystemA())
	base := engine.NewConfig(tpch.BaselineIndexes(cat)...)
	w := workload.Hom(workload.HomConfig{Queries: 15, Seed: 1})
	cache := inum.New(eng)
	cache.Prepare(w)
	s := cophy.Candidates(cat, w, cophy.CGenOptions{Covering: true})
	mat := cache.CompileMatrix(w, s, base, 0)
	qm := mat.Query(w.Queries()[2].Query)
	sel := make([]bool, len(s))
	for i := range sel {
		sel[i] = i%3 == 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := qm.Cost(sel); !ok {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkINUMPrepare measures template-plan extraction per query.
func BenchmarkINUMPrepare(b *testing.B) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 1})
	eng := engine.New(cat, engine.SystemA())
	w := workload.Hom(workload.HomConfig{Queries: 30, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := inum.New(eng)
		cache.Prepare(w)
	}
}

// BenchmarkSimplex measures the LP substrate on a dense assignment-ish
// relaxation.
func BenchmarkSimplex(b *testing.B) {
	n := 40
	p := lp.NewProblem(n * n)
	for i := 0; i < n; i++ {
		var rowR, rowC []lp.Coef
		for j := 0; j < n; j++ {
			p.SetObj(i*n+j, float64((i*7+j*13)%17))
			p.SetBounds(i*n+j, 0, 1)
			rowR = append(rowR, lp.Coef{Col: i*n + j, Val: 1})
			rowC = append(rowC, lp.Coef{Col: j*n + i, Val: 1})
		}
		p.AddRow(rowR, lp.EQ, 1)
		p.AddRow(rowC, lp.EQ, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := lp.Solve(p); s.Status != lp.Optimal {
			b.Fatalf("status %v", s.Status)
		}
	}
}

// buildBenchModel compiles a CoPhy BIP for solver benchmarks, at a
// storage budget of half the data.
func buildBenchModel(b *testing.B, w *workload.Workload) *lagrange.Model {
	b.Helper()
	cat := tpch.Build(tpch.Config{ScaleFactor: 1})
	eng := engine.New(cat, engine.SystemA())
	ad := cophy.NewAdvisor(cat, eng, cophy.Options{})
	s := cophy.Candidates(cat, w, cophy.CGenOptions{Covering: true})
	inst := cophy.InstanceForTest(ad, w, s)
	ad.Inum.Prepare(w)
	m, err := cophy.BuildModel(inst)
	if err != nil {
		b.Fatal(err)
	}
	m.Budget = 0.5 * float64(cat.TotalBytes())
	return m
}

func hom40() *workload.Workload { return workload.Hom(workload.HomConfig{Queries: 40, Seed: 5}) }

// BenchmarkLagrangeSolve measures the structured solver on a real
// CoPhy BIP.
func BenchmarkLagrangeSolve(b *testing.B) {
	m := buildBenchModel(b, hom40())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lagrange.Solve(m, lagrange.Options{GapTol: 0.05, RootIters: 160, MaxNodes: 16})
	}
}

// BenchmarkLagrangeSolveHet measures the solver on a heterogeneous
// workload's BIP (every statement its own template, ~850 candidates),
// where the gap stays open and each subgradient iteration's serial
// bookkeeping — the knapsack sort, the λ step, the heuristics — shows
// beside the block duals. The λ step visits only the groups whose
// multiplier can move (a few percent of them); one that walked every
// group again would show here first. The options are those of the
// cold workloads in bench/.
func BenchmarkLagrangeSolveHet(b *testing.B) {
	m := buildBenchModel(b, workload.Het(workload.HetConfig{Queries: 100, Seed: 5}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lagrange.Solve(m, lagrange.Options{GapTol: 0.05, RootIters: 160, MaxNodes: 32})
	}
}

// BenchmarkSessionResolve measures one revision of an interactive
// session (§4.2): a pure re-weight of the workload followed by a warm
// re-solve. build-ms/op is Result.Times.Build — with the session keeping
// its compiled problem a re-weight compiles nothing, so it should stay
// far below the cold build BenchmarkCostMatrixCompile dominates.
func BenchmarkSessionResolve(b *testing.B) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 1})
	eng := engine.New(cat, engine.SystemA())
	base := workload.Hom(workload.HomConfig{Queries: 60, Seed: 5})
	ad := cophy.NewAdvisor(cat, eng, cophy.Options{})
	se := ad.NewSession(base, cophy.Candidates(cat, base, cophy.CGenOptions{Covering: true}), cophy.FractionOfData(cat, 0.5))
	if _, err := se.Solve(); err != nil {
		b.Fatal(err)
	}
	// Two weightings of the same statements, alternated.
	doubled := &workload.Workload{Name: base.Name + "-reweighted"}
	for i, st := range base.Statements {
		weight := st.Weight
		if i%5 == 0 {
			weight *= 2
		}
		doubled.Statements = append(doubled.Statements, &workload.Statement{Query: st.Query, Update: st.Update, Weight: weight})
	}
	weightings := [2]*workload.Workload{doubled, base}
	var build float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		se.SetWorkload(weightings[i%2])
		res, err := se.Solve()
		if err != nil {
			b.Fatal(err)
		}
		build += res.Times.Build.Seconds() * 1e3
	}
	b.ReportMetric(build/float64(b.N), "build-ms/op")
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationWarmStartCold/Warm quantify dual warm starts — the
// mechanism behind interactive re-tuning (Figure 6b).
func BenchmarkAblationWarmStartCold(b *testing.B) {
	m := buildBenchModel(b, hom40())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := lagrange.Solve(m, lagrange.Options{GapTol: 0.05, RootIters: 400, MaxNodes: 16})
		b.ReportMetric(float64(r.Iters), "iters")
	}
}

func BenchmarkAblationWarmStartWarm(b *testing.B) {
	m := buildBenchModel(b, hom40())
	seed := lagrange.Solve(m, lagrange.Options{GapTol: 0.05, RootIters: 400, MaxNodes: 16})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := lagrange.Solve(m, lagrange.Options{
			GapTol: 0.05, RootIters: 400, MaxNodes: 16,
			Warm: seed.Lambda, Start: seed.Selected,
		})
		b.ReportMetric(float64(r.Iters), "iters")
	}
}

// BenchmarkAblationINUM vs RawWhatIf: the per-evaluation gap INUM
// opens over direct what-if optimization, the enabler of the whole
// BIP formulation.
func BenchmarkAblationINUMEval(b *testing.B) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 1})
	eng := engine.New(cat, engine.SystemA())
	base := engine.NewConfig(tpch.BaselineIndexes(cat)...)
	w := workload.Hom(workload.HomConfig{Queries: 30, Seed: 6})
	cache := inum.New(eng)
	cache.Prepare(w)
	cfg := base.Union(engine.NewConfig(&catalog.Index{Table: "orders", Key: []string{"o_orderdate"}}))
	if _, err := cache.WorkloadCost(w, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.WorkloadCost(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRawWhatIfEval(b *testing.B) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 1})
	eng := engine.New(cat, engine.SystemA())
	base := engine.NewConfig(tpch.BaselineIndexes(cat)...)
	w := workload.Hom(workload.HomConfig{Queries: 30, Seed: 6})
	cfg := base.Union(engine.NewConfig(&catalog.Index{Table: "orders", Key: []string{"o_orderdate"}}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.WorkloadCost(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationILPPruneK sweeps ILP's per-query configuration
// pruning: larger K costs build time for (slightly) better models —
// the trade-off CoPhy avoids by not enumerating configurations at all.
func benchILPPrune(b *testing.B, k int) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 1})
	eng := engine.New(cat, engine.SystemA())
	w := workload.Hom(workload.HomConfig{Queries: 25, Seed: 7})
	s := cophy.Candidates(cat, w, cophy.CGenOptions{Covering: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ad := ilp.New(cat, eng, nil, ilp.Options{PerQuery: k})
		if _, err := ad.Recommend(w, s, float64(cat.TotalBytes())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationILPPruneK5(b *testing.B)  { benchILPPrune(b, 5) }
func BenchmarkAblationILPPruneK20(b *testing.B) { benchILPPrune(b, 20) }
func BenchmarkAblationILPPruneK50(b *testing.B) { benchILPPrune(b, 50) }
