package cophy

import (
	"context"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bip"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/lagrange"
	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/tpch"
	"repro/internal/workload"
)

func testAdvisor(t *testing.T) (*Advisor, *catalog.Catalog, *engine.Engine) {
	t.Helper()
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	eng := engine.New(cat, engine.SystemA())
	ad := NewAdvisor(cat, eng, Options{GapTol: 0.02, RootIters: 150, MaxNodes: 60})
	return ad, cat, eng
}

func TestCandidatesGeneration(t *testing.T) {
	_, cat, _ := testAdvisor(t)
	w := workload.Hom(workload.HomConfig{Queries: 60, Seed: 70})
	s := Candidates(cat, w, CGenOptions{Covering: true})
	if len(s) < 30 {
		t.Fatalf("only %d candidates generated", len(s))
	}
	seen := map[string]bool{}
	covering := 0
	for _, ix := range s {
		if seen[ix.ID()] {
			t.Fatalf("duplicate candidate %s", ix.ID())
		}
		seen[ix.ID()] = true
		if cat.Table(ix.Table) == nil {
			t.Fatalf("candidate on unknown table %s", ix.Table)
		}
		for _, k := range ix.Key {
			if cat.Table(ix.Table).Column(k) == nil {
				t.Fatalf("candidate %s has unknown key column", ix.ID())
			}
		}
		if len(ix.Include) > 0 {
			covering++
		}
	}
	if covering == 0 {
		t.Fatal("no covering candidates generated")
	}
	// Determinism.
	s2 := Candidates(cat, w, CGenOptions{Covering: true})
	if len(s) != len(s2) {
		t.Fatal("candidate generation not deterministic")
	}
	for i := range s {
		if s[i].ID() != s2[i].ID() {
			t.Fatal("candidate order not deterministic")
		}
	}
}

func TestCandidatesDBAMerged(t *testing.T) {
	_, cat, _ := testAdvisor(t)
	w := workload.Hom(workload.HomConfig{Queries: 15, Seed: 71})
	dba := &catalog.Index{Table: "region", Key: []string{"r_name"}}
	s := Candidates(cat, w, CGenOptions{DBA: []*catalog.Index{dba}})
	found := false
	for _, ix := range s {
		if ix.ID() == dba.ID() {
			found = true
		}
	}
	if !found {
		t.Fatal("S_DBA candidate missing from union")
	}
}

func TestRandomIndexes(t *testing.T) {
	_, cat, _ := testAdvisor(t)
	s := RandomIndexes(cat, 200, 1)
	if len(s) != 200 {
		t.Fatalf("generated %d random indexes, want 200", len(s))
	}
	s2 := RandomIndexes(cat, 200, 1)
	for i := range s {
		if s[i].ID() != s2[i].ID() {
			t.Fatal("random index generation not seed-deterministic")
		}
	}
}

// TestTheorem1Equivalence is the core validation of the paper's main
// result: the structured model solved by the Lagrangian solver and the
// explicit BIP of Theorem 1 solved by the generic branch-and-bound
// must agree on the optimum.
func TestTheorem1Equivalence(t *testing.T) {
	ad, cat, _ := testAdvisor(t)
	w := workload.Hom(workload.HomConfig{Queries: 4, Seed: 72})
	s := Candidates(cat, w, CGenOptions{MaxKeyCols: 2})
	if len(s) > 12 {
		s = s[:12] // keep the explicit BIP small
	}
	inst := ad.instance(w, s)
	ad.Inum.Prepare(w)
	model, err := BuildModel(inst)
	if err != nil {
		t.Fatal(err)
	}
	model.Budget = 0.4 * float64(cat.TotalBytes())

	// Structured solve, driven to (near) optimality.
	lr := lagrange.Solve(model, lagrange.Options{GapTol: 1e-9, RootIters: 600, MaxNodes: 2000})
	if lr.Infeasible {
		t.Fatal("structured model infeasible")
	}

	// Explicit Theorem-1 BIP, searched to exhaustion.
	em, _ := buildExplicitBIP(model)
	r := bip.Solve(em, bip.Options{})
	if r.Status != bip.Optimal {
		t.Fatalf("explicit BIP: status %v after %d nodes, want optimal", r.Status, r.Nodes)
	}
	explicit := r.Obj + model.Const

	if lr.Objective > explicit*1.000001+1e-6 {
		t.Fatalf("Theorem 1 violated: structured optimum %v worse than explicit BIP optimum %v (gap %v)",
			lr.Objective, explicit, lr.Gap)
	}
	if lr.Objective < explicit*(1-1e-6)-1e-6 {
		t.Fatalf("structured objective %v below the explicit BIP optimum %v — a model mismatch", lr.Objective, explicit)
	}
}

func TestRecommendImprovesWorkload(t *testing.T) {
	ad, cat, eng := testAdvisor(t)
	w := workload.Hom(workload.HomConfig{Queries: 45, Seed: 73})
	s := Candidates(cat, w, CGenOptions{Covering: true})
	res, err := ad.Recommend(w, s, FractionOfData(cat, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Infeasible {
		t.Fatal("unexpectedly infeasible")
	}
	if len(res.Indexes) == 0 {
		t.Fatal("no indexes recommended")
	}
	// Recommend is the first solve of a session: same recommendation,
	// same bounds, same effort.
	ad2, _, _ := testAdvisor(t)
	via, err := ad2.NewSession(w, s, FractionOfData(cat, 1.0)).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(via.Selected, res.Selected) || !reflect.DeepEqual(via.Indexes, res.Indexes) ||
		via.EstCost != res.EstCost || via.Lower != res.Lower || via.Gap != res.Gap ||
		via.Iters != res.Iters || via.Nodes != res.Nodes || len(via.Trace) != len(res.Trace) {
		t.Fatalf("Recommend differs from NewSession.Solve:\n got %+v\nwant %+v", res, via)
	}
	// Ground-truth comparison via the what-if optimizer.
	base := engine.NewConfig(tpch.BaselineIndexes(cat)...)
	baseCost, err := eng.WorkloadCost(w, base)
	if err != nil {
		t.Fatal(err)
	}
	recCost, err := eng.WorkloadCost(w, ad.Config(res))
	if err != nil {
		t.Fatal(err)
	}
	if recCost >= baseCost {
		t.Fatalf("recommendation does not improve workload: %v -> %v", baseCost, recCost)
	}
	improvement := 1 - recCost/baseCost
	if improvement < 0.2 {
		t.Fatalf("improvement only %.1f%%; expected a substantial speedup", improvement*100)
	}
	// Budget respected.
	var used float64
	for _, ix := range res.Indexes {
		used += float64(ix.Bytes(cat.Table(ix.Table)))
	}
	if used > float64(cat.TotalBytes())*1.0000001 {
		t.Fatalf("budget violated: %v > %v", used, cat.TotalBytes())
	}
	// Breakdown populated.
	if res.Times.INUM <= 0 || res.Times.Solve <= 0 {
		t.Fatalf("timings missing: %+v", res.Times)
	}
}

func TestTighterBudgetNeverBetter(t *testing.T) {
	ad, cat, _ := testAdvisor(t)
	w := workload.Hom(workload.HomConfig{Queries: 30, Seed: 74})
	s := Candidates(cat, w, CGenOptions{})
	loose, err := ad.Recommend(w, s, FractionOfData(cat, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	tight, err := ad.Recommend(w, s, FractionOfData(cat, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	// Allow solver slack (5% default gap would be the bound; we use 2%).
	if tight.EstCost < loose.EstCost*(1-0.05) {
		t.Fatalf("tighter budget yielded better cost: %v < %v", tight.EstCost, loose.EstCost)
	}
	var tightBytes float64
	for _, ix := range tight.Indexes {
		tightBytes += float64(ix.Bytes(cat.Table(ix.Table)))
	}
	if tightBytes > 0.05*float64(cat.TotalBytes())*1.0000001 {
		t.Fatal("tight budget violated")
	}
}

func TestInfeasibleConstraintsReported(t *testing.T) {
	ad, cat, _ := testAdvisor(t)
	w := workload.Hom(workload.HomConfig{Queries: 10, Seed: 75})
	s := Candidates(cat, w, CGenOptions{})
	cons := FractionOfData(cat, 1)
	cons.Items = append(cons.Items,
		Count{Name: "impossible-ge", Filter: OnTable("lineitem"), Sense: lp.GE, V: float64(len(s) + 10)},
	)
	res, err := ad.Recommend(w, s, cons)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Infeasible {
		t.Fatal("expected infeasibility")
	}
	found := false
	for _, v := range res.Violated {
		if v == "impossible-ge" {
			found = true
		}
	}
	if !found {
		t.Fatalf("violated constraints = %v, want impossible-ge", res.Violated)
	}
}

// TestImpossibleQueryCostReported covers the other infeasibility report:
// the z polytope is feasible, but no selection meets the per-statement
// cost caps.
func TestImpossibleQueryCostReported(t *testing.T) {
	ad, cat, _ := testAdvisor(t)
	w := workload.Hom(workload.HomConfig{Queries: 10, Seed: 75})
	s := Candidates(cat, w, CGenOptions{})
	cons := FractionOfData(cat, 1)
	cons.Items = append(cons.Items, QueryCost{Factor: 1e-6})
	res, err := ad.Recommend(w, s, cons)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Infeasible || !reflect.DeepEqual(res.Violated, []string{"query-cost-constraints"}) {
		t.Fatalf("infeasible=%v violated=%v, want the query-cost-constraints report", res.Infeasible, res.Violated)
	}
}

// TestOneFeasibilityScreenPerSolve pins that a solve screens its z
// polytope once: the screen's LP records lp.phase1 on the request trace,
// and a budget-only model solves no other LP.
func TestOneFeasibilityScreenPerSolve(t *testing.T) {
	ad, cat, _ := testAdvisor(t)
	w := workload.Hom(workload.HomConfig{Queries: 10, Seed: 75})
	s := Candidates(cat, w, CGenOptions{})
	tr := obs.NewTrace()
	res, err := ad.NewSession(w, s, FractionOfData(cat, 0.5)).SolveCtx(obs.WithTrace(context.Background(), tr))
	if err != nil || res.Infeasible {
		t.Fatalf("solve failed: err=%v res=%+v", err, res)
	}
	for _, sp := range tr.Spans() {
		if sp.Name == "lp.phase1" {
			if sp.Count != 1 {
				t.Fatalf("lp.phase1 recorded %d times for one budget-only solve, want 1", sp.Count)
			}
			return
		}
	}
	t.Fatal("no lp.phase1 span: the feasibility screen did not run under the trace")
}

func TestCountConstraintHonored(t *testing.T) {
	ad, cat, _ := testAdvisor(t)
	w := workload.Hom(workload.HomConfig{Queries: 30, Seed: 76})
	s := Candidates(cat, w, CGenOptions{Covering: true})
	cons := FractionOfData(cat, 1)
	cons.Items = append(cons.Items, Count{
		Name: "few-lineitem", Filter: OnTable("lineitem"), Sense: lp.LE, V: 1,
	})
	res, err := ad.Recommend(w, s, cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.Infeasible {
		t.Fatal("unexpectedly infeasible")
	}
	n := 0
	for _, ix := range res.Indexes {
		if ix.Table == "lineitem" {
			n++
		}
	}
	if n > 1 {
		t.Fatalf("constraint violated: %d lineitem indexes", n)
	}
}

func TestWideIndexConstraint(t *testing.T) {
	// Appendix E.1's example: at most 2 indexes with ≥ 2 key columns
	// on lineitem.
	ad, cat, _ := testAdvisor(t)
	w := workload.Hom(workload.HomConfig{Queries: 30, Seed: 77})
	s := Candidates(cat, w, CGenOptions{Covering: true})
	cons := FractionOfData(cat, 1)
	cons.Items = append(cons.Items, Count{
		Name: "wide-lineitem", Filter: And(OnTable("lineitem"), MinKeyCols(2)), Sense: lp.LE, V: 2,
	})
	res, err := ad.Recommend(w, s, cons)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ix := range res.Indexes {
		if ix.Table == "lineitem" && len(ix.Key) >= 2 {
			n++
		}
	}
	if n > 2 {
		t.Fatalf("wide-index constraint violated: %d", n)
	}

	// The column filter of the same language: a Count over HasColumn
	// compiles to one unit term per candidate storing the column.
	const col = "l_shipdate"
	var want []lagrange.Term
	for i, ix := range s {
		if slices.Contains(ix.Key, col) || slices.Contains(ix.Include, col) {
			want = append(want, lagrange.Term{Index: int32(i), Coef: 1})
		}
	}
	if len(want) == 0 || len(want) == len(s) {
		t.Fatalf("%d of %d candidates store %s: the case selects nothing", len(want), len(s), col)
	}
	m := lagrange.NewModel(len(s))
	byColumn := Constraints{BudgetBytes: -1, Items: []Item{Count{Name: "with-shipdate", Filter: HasColumn(col), Sense: lp.LE, V: 3}}}
	if err := applyConstraints(ad.instance(w, s), m, byColumn); err != nil {
		t.Fatal(err)
	}
	if len(m.Extra) != 1 || !reflect.DeepEqual(m.Extra[0].Terms, want) || m.Extra[0].RHS != 3 || m.Extra[0].Sense != lp.LE {
		t.Fatalf("HasColumn count compiled to %+v, want terms %v ≤ 3", m.Extra, want)
	}
}

func TestClusteredPerTable(t *testing.T) {
	ad, cat, _ := testAdvisor(t)
	w := workload.Hom(workload.HomConfig{Queries: 15, Seed: 78})
	s := Candidates(cat, w, CGenOptions{})
	// Add clustered candidate variants for lineitem.
	s = append(s,
		&catalog.Index{Table: "lineitem", Key: []string{"l_shipdate"}, Clustered: true},
		&catalog.Index{Table: "lineitem", Key: []string{"l_partkey"}, Clustered: true},
	)
	catalog.SortIndexes(s)
	cons := FractionOfData(cat, 2)
	cons.Items = append(cons.Items, ClusteredPerTable{})
	res, err := ad.Recommend(w, s, cons)
	if err != nil {
		t.Fatal(err)
	}
	perTable := map[string]int{}
	for _, ix := range res.Indexes {
		if ix.Clustered {
			perTable[ix.Table]++
		}
	}
	for table, n := range perTable {
		if n > 1 {
			t.Fatalf("%d clustered indexes selected on %s", n, table)
		}
	}
}

func TestQueryCostConstraint(t *testing.T) {
	ad, cat, _ := testAdvisor(t)
	w := workload.Hom(workload.HomConfig{Queries: 15, Seed: 79})
	s := Candidates(cat, w, CGenOptions{Covering: true})
	cons := FractionOfData(cat, 2)
	cons.Items = append(cons.Items, QueryCost{Factor: 0.9})
	res, err := ad.Recommend(w, s, cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.Infeasible {
		t.Skip("0.9× cap infeasible for this workload under the budget")
	}
	// Every query must now cost at most 90% of its baseline.
	inst := ad.instance(w, s)
	cfg := ad.Config(res)
	for _, st := range w.Queries() {
		base, _ := ad.Inum.Cost(st.Query, inst.Baseline)
		got, _ := ad.Inum.Cost(st.Query, cfg)
		if got > base*0.9*1.01 {
			t.Fatalf("%s: cost %v exceeds 90%% of baseline %v", st.Query.ID, got, base)
		}
	}
}

// TestConstrainedSolveGolden pins, to the last bit, the solve of the
// constrained example (examples/constraints): Hom-80 seed 4 on TPC-H
// SF1 with two clustered lineitem candidates added, under a lineitem
// cap, a wide-index cap, one clustered index per table and a per-query
// cost assertion. Side constraints change which incumbent sources win,
// so the unconstrained goldens (lagrange's TestSolveGolden) do not
// cover them. A failure prints the new literal; paste it only when the
// answer change is intended.
func TestConstrainedSolveGolden(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 1})
	w := workload.Hom(workload.HomConfig{Queries: 80, Seed: 4})
	s := Candidates(cat, w, CGenOptions{Covering: true})
	s = append(s,
		&catalog.Index{Table: "lineitem", Key: []string{"l_shipdate"}, Clustered: true},
		&catalog.Index{Table: "lineitem", Key: []string{"l_partkey"}, Clustered: true},
	)
	catalog.SortIndexes(s)
	var capped []string
	for _, st := range w.Queries() {
		if st.Query.Template == "q6-forecast-revenue" && len(capped) < 4 {
			capped = append(capped, st.Query.ID)
		}
	}
	cons := FractionOfData(cat, 1)
	cons.Items = []Item{
		Count{Name: "lineitem-cap", Filter: OnTable("lineitem"), Sense: lp.LE, V: 3},
		Count{Name: "wide-cap", Filter: MinKeyCols(2), Sense: lp.LE, V: 4},
		ClusteredPerTable{},
		QueryCost{Factor: 0.9, IDs: capped},
	}
	ad := NewAdvisor(cat, engine.New(cat, engine.SystemA()), Options{GapTol: 0.05})
	res, err := ad.Recommend(w, s, cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.Infeasible || len(capped) != 4 {
		t.Fatalf("instance changed: infeasible %v, %d capped queries", res.Infeasible, len(capped))
	}
	type golden struct {
		EstCost, Lower float64
		Iters, Nodes   int
		Selected       uint64
	}
	h := fnv.New64a()
	for _, on := range res.Selected {
		if on {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	got := golden{res.EstCost, res.Lower, res.Iters, res.Nodes, h.Sum64()}
	want := golden{6681973.9379800018, 5689297.3864314659, 3002, 48, 0x3406373f33e15f64}
	if got != want {
		t.Errorf("constrained solve changed\n got  golden{%.17g, %.17g, %d, %d, %#x}\n want golden{%.17g, %.17g, %d, %d, %#x}",
			got.EstCost, got.Lower, got.Iters, got.Nodes, got.Selected, want.EstCost, want.Lower, want.Iters, want.Nodes, want.Selected)
	}
}

func TestSessionInteractiveRetuning(t *testing.T) {
	ad, cat, _ := testAdvisor(t)
	w := workload.Hom(workload.HomConfig{Queries: 30, Seed: 80})
	all := Candidates(cat, w, CGenOptions{Covering: true})
	if len(all) < 20 {
		t.Fatalf("too few candidates: %d", len(all))
	}
	half := all[:len(all)/2]
	se := ad.NewSession(w, half, FractionOfData(cat, 1))
	first, err := se.Solve()
	if err != nil {
		t.Fatal(err)
	}
	se.AddCandidates(all[len(all)/2:])
	second, err := se.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// A larger candidate set can only help (within solver slack).
	if second.EstCost > first.EstCost*1.02 {
		t.Fatalf("re-tuning with more candidates worsened cost: %v -> %v", first.EstCost, second.EstCost)
	}
	// The INUM cache is already warm, so the revised recommendation
	// must skip INUM preparation almost entirely.
	if second.Times.INUM > first.Times.INUM && second.Times.INUM > 50*first.Times.INUM/100 {
		t.Fatalf("INUM time not reused: first=%v second=%v", first.Times.INUM, second.Times.INUM)
	}
}

func TestSoftStorageSweep(t *testing.T) {
	ad, cat, _ := testAdvisor(t)
	w := workload.Hom(workload.HomConfig{Queries: 20, Seed: 81})
	s := Candidates(cat, w, CGenOptions{Covering: true})
	points, times, err := ad.SoftStorageSweep(w, s, NoConstraints(), 0, []float64{0, 0.25, 0.5, 0.75, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("points = %d", len(points))
	}
	// λ = 0 minimizes storage: the empty configuration.
	if points[0].SizeBytes != 0 {
		t.Fatalf("λ=0 should select nothing, got %v bytes", points[0].SizeBytes)
	}
	// λ = 1 minimizes cost: must be the cheapest point.
	for _, p := range points {
		if points[4].Cost > p.Cost*1.02 {
			t.Fatalf("λ=1 not cost-minimal: %v > %v", points[4].Cost, p.Cost)
		}
	}
	// Higher λ trades storage for cost monotonically (within slack).
	if points[4].SizeBytes < points[0].SizeBytes {
		t.Fatal("λ=1 should use at least as much storage as λ=0")
	}
	if times.INUM <= 0 {
		t.Fatal("shared INUM time missing")
	}
	// Golden (amd64): the sweep is deterministic, so a change to how the
	// base model is built or how points warm-start each other shows up
	// here as moved cost bits, bytes or configuration size.
	golden := []struct {
		costBits uint64
		size     float64
		indexes  int
	}{
		{0x4108af1f7958b3ab, 0, 0},
		{0x4108af1f7958b3ab, 0, 0},
		{0x40fd8b5955171593, 2.7006073e+07, 4},
		{0x40e3b2188a91a272, 8.6040079e+07, 12},
		{0x40d698e58f29d778, 2.27613067e+08, 30},
	}
	for i, p := range points {
		if g := golden[i]; math.Float64bits(p.Cost) != g.costBits || p.SizeBytes != g.size || len(p.Indexes) != g.indexes {
			t.Fatalf("λ=%v: point (%v, %v bytes, %d indexes) moved off golden (%v, %v bytes, %d indexes)",
				p.Lambda, p.Cost, p.SizeBytes, len(p.Indexes), math.Float64frombits(g.costBits), g.size, g.indexes)
		}
	}
}

func TestSoftStorageChord(t *testing.T) {
	ad, cat, _ := testAdvisor(t)
	w := workload.Hom(workload.HomConfig{Queries: 15, Seed: 82})
	s := Candidates(cat, w, CGenOptions{})
	points, _, err := ad.SoftStorageChord(w, s, NoConstraints(), 0, 0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 2 {
		t.Fatalf("chord returned %d points", len(points))
	}
	// Extremes present: a min-cost end and a min-size end.
	minSize, minCost := math.Inf(1), math.Inf(1)
	for _, p := range points {
		minSize = math.Min(minSize, p.SizeBytes)
		minCost = math.Min(minCost, p.Cost)
	}
	if points[len(points)-1].SizeBytes != minSize && points[0].SizeBytes != minSize {
		t.Fatal("chord lost the min-storage extreme")
	}
}

func TestProgressTrace(t *testing.T) {
	ad, cat, _ := testAdvisor(t)
	w := workload.Hom(workload.HomConfig{Queries: 20, Seed: 83})
	s := Candidates(cat, w, CGenOptions{})
	res, err := ad.Recommend(w, s, FractionOfData(cat, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no solver trace recorded")
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Upper > res.Trace[i-1].Upper+1e-9 {
			t.Fatal("trace upper bound worsened")
		}
	}
	if res.Gap > ad.Opts.GapTol+0.03 && res.Gap > 0.05 {
		t.Fatalf("final gap %v far above tolerance", res.Gap)
	}
}
