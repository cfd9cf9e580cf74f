package cophy

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/inum"
	"repro/internal/lagrange"
	"repro/internal/lp"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// diffRig is one side of the differential test: a session on an advisor
// and engine of its own, so the two sides share nothing but the inputs.
type diffRig struct {
	eng *engine.Engine
	ad  *Advisor
	se  *Session
}

// outcome is what two solves of the same problem must agree on.
type outcome struct {
	Err        string
	Infeasible bool
	Selected   []bool
	EstCost    float64
	Lower      float64
	Iters      int
}

func (r *diffRig) solve(ctx context.Context) outcome {
	res, err := r.se.SolveCtx(ctx)
	if err != nil {
		return outcome{Err: err.Error()}
	}
	return outcome{"", res.Infeasible, res.Selected, res.EstCost, res.Lower, res.Iters}
}

// TestSessionIncrementalDifferential drives a session through a seeded
// random sequence of every kind of revision and holds it, step by step,
// to a control that forgets its compiled problem before every solve: the
// model the session assembles from kept slabs and choices must equal a
// from-nothing build to the last float bit, and the two solves must be
// the same solve. Builds run with more workers than cores.
func TestSessionIncrementalDifferential(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	all := workload.Het(workload.HetConfig{Queries: 30, UpdateFraction: 0.2, Seed: 911})
	cands := Candidates(cat, all, CGenOptions{Covering: true})
	rng := rand.New(rand.NewSource(20260927))

	// The session starts on 22 of the statements and two thirds of the
	// candidates; the rest wait in pools the revisions draw from.
	active := append([]*workload.Statement(nil), all.Statements[:22]...)
	spare := append([]*workload.Statement(nil), all.Statements[22:]...)
	var initial, held []*catalog.Index
	for i, ix := range cands {
		if i%3 == 2 {
			held = append(held, ix)
		} else {
			initial = append(initial, ix)
		}
	}
	cons := FractionOfData(cat, 0.5)
	snapshot := func() *workload.Workload {
		return &workload.Workload{Name: "diff", Statements: append([]*workload.Statement(nil), active...)}
	}

	var cancelOnProgress context.CancelFunc
	revisions := 0
	newRig := func() *diffRig {
		eng := engine.New(cat, engine.SystemA())
		ad := NewAdvisor(cat, eng, Options{GapTol: 0.02, RootIters: 150, MaxNodes: 60})
		ad.workers = 2*runtime.GOMAXPROCS(0) + 3
		ad.Opts.Progress = func(lagrange.Event) {
			if cancelOnProgress != nil {
				cancelOnProgress()
			}
		}
		return &diffRig{eng: eng, ad: ad, se: ad.NewSession(snapshot(), initial, cons)}
	}
	inc, ctl := newRig(), newRig()
	both := func(op func(r *diffRig)) { op(inc); op(ctl) }

	// check is the per-step contract.
	reused := 0
	check := func(step string) {
		t.Helper()
		se := inc.se
		before := inc.eng.SlotCostCalls()
		_, got, _, err := inc.ad.prepare(context.Background(), &se.built, se.w, se.s, se.cons)
		if err != nil {
			t.Fatalf("%s: incremental build: %v", step, err)
		}
		if inc.eng.SlotCostCalls() == before {
			reused++
		}
		fresh := ctl.ad.instance(se.w, se.s)
		want, err := BuildModel(fresh)
		if err == nil {
			err = applyConstraints(fresh, want, se.cons)
		}
		if err != nil {
			t.Fatalf("%s: reference build: %v", step, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: model assembled from kept state differs from a from-nothing build", step)
		}
		ids := map[string]bool{}
		for _, st := range se.w.Queries() {
			ids[st.Query.ID] = true
		}
		if slabs, choices := CompiledForTest(se); slabs != len(ids) || choices != len(ids) {
			t.Fatalf("%s: session keeps %d slabs and %d choice sets for %d distinct statements", step, slabs, choices, len(ids))
		}
		ctl.se.built = compiled{}
		a, b := inc.solve(context.Background()), ctl.solve(context.Background())
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: solves differ\nincremental %+v\ncontrol     %+v", step, a, b)
		}
		if a.Err != "" {
			t.Fatalf("%s: %s", step, a.Err)
		}
	}
	check("cold")

	queryStatement := func() *workload.Statement {
		for {
			if st := active[rng.Intn(len(active))]; st.Query != nil {
				return st
			}
		}
	}
	ops := []struct {
		name string
		do   func()
	}{
		{"add-candidates", func() {
			n := min(len(held), 1+rng.Intn(12))
			delta := held[:n]
			held = held[n:]
			both(func(r *diffRig) { r.se.AddCandidates(delta) })
		}},
		{"re-weight", func() {
			for i, st := range active {
				active[i] = &workload.Statement{Query: st.Query, Update: st.Update, Weight: float64(1 + rng.Intn(5))}
			}
			w := snapshot()
			both(func(r *diffRig) { r.se.SetWorkload(w) })
		}},
		{"append-statements", func() {
			n := min(len(spare), 3)
			active, spare = append(active, spare[:n]...), spare[n:]
			w := snapshot()
			both(func(r *diffRig) { r.se.SetWorkload(w) })
		}},
		{"drop-statements", func() {
			for k := 0; k < 2; k++ {
				i := rng.Intn(len(active))
				spare = append(spare, active[i])
				active = append(active[:i], active[i+1:]...)
			}
			w := snapshot()
			both(func(r *diffRig) { r.se.SetWorkload(w) })
		}},
		{"duplicate-id", func() {
			active = append(active, &workload.Statement{Query: queryStatement().Query, Weight: 3.5})
			w := snapshot()
			both(func(r *diffRig) { r.se.SetWorkload(w) })
		}},
		{"budget", func() {
			cons = FractionOfData(cat, []float64{0.3, 0.6, 1}[rng.Intn(3)])
			both(func(r *diffRig) { r.se.SetConstraints(cons) })
		}},
		{"query-cost-cap", func() {
			cons.Items = []Item{
				Count{Name: "few-wide", Filter: MinKeyCols(2), Sense: lp.LE, V: 6},
				QueryCost{Factor: 0.97, IDs: []string{queryStatement().Query.ID}},
			}
			both(func(r *diffRig) { r.se.SetConstraints(cons) })
		}},
		{"set-candidates", func() {
			live := append([]*catalog.Index(nil), inc.se.Candidates()...)
			rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			if revisions++; revisions%2 == 0 {
				// Every other revision drops a third; the dropped wait in
				// the pool and may come back.
				cut := len(live) * 2 / 3
				held, live = append(held, live[cut:]...), live[:cut:cut]
			}
			n := min(len(held), rng.Intn(6))
			live, held = append(live, held[:n]...), held[n:]
			both(func(r *diffRig) { r.se.SetCandidates(live) })
		}},
		{"cancelled-solve", func() {
			both(func(r *diffRig) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cancelOnProgress = cancel
				_, err := r.se.SolveCtx(ctx)
				cancelOnProgress = nil
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled-solve: got %v, want context.Canceled", err)
				}
			})
		}},
		{"infeasible-solve", func() {
			impossible := cons
			impossible.Items = []Item{Count{Name: "impossible", Sense: lp.GE, V: float64(len(cands) + 1)}}
			both(func(r *diffRig) {
				r.se.SetConstraints(impossible)
				if res, err := r.se.Solve(); err != nil || !res.Infeasible {
					t.Fatalf("infeasible-solve: got %+v, %v", res, err)
				}
				r.se.SetConstraints(cons)
			})
		}},
	}
	for round := 0; round < 2; round++ {
		for _, k := range rng.Perm(len(ops)) {
			ops[k].do()
			check(ops[k].name)
		}
	}
	if reused < 6 {
		t.Fatalf("only %d of the builds reused the whole matrix; the test is not exercising the kept state", reused)
	}
}

// TestResolveSlotCostCalls pins what a re-solve may spend in the γ
// kernel: nothing when no γ value changed, and exactly the appended
// candidates' or statements' share of a from-nothing compile otherwise.
// A re-solve looks up no template set for a statement it kept a slab
// for.
func TestResolveSlotCostCalls(t *testing.T) {
	ad, cat, eng := testAdvisor(t)
	all := workload.Hom(workload.HomConfig{Queries: 36, Seed: 80})
	w := &workload.Workload{Name: "first", Statements: all.Statements[:30]}
	cands := Candidates(cat, all, CGenOptions{Covering: true})
	s, delta := cands[:len(cands)/2], cands[len(cands)/2:]
	ad.Inum.Prepare(all)

	// compileCalls counts the γ evaluations of a from-nothing compile.
	compileCalls := func(w *workload.Workload, s []*catalog.Index) int64 {
		eng.ResetSlotCostCalls()
		ad.Inum.CompileMatrix(w, s, ad.baseline, 0)
		return eng.SlotCostCalls()
	}
	resolveCalls := func(se *Session) int64 {
		t.Helper()
		eng.ResetSlotCostCalls()
		if res, err := se.Solve(); err != nil || res.Infeasible {
			t.Fatalf("re-solve: %+v, %v", res, err)
		}
		return eng.SlotCostCalls()
	}

	se := ad.NewSession(w, s, FractionOfData(cat, 0.5))
	if got, want := resolveCalls(se), compileCalls(w, s); got != want || want == 0 {
		t.Fatalf("cold solve made %d γ evaluations, a compile makes %d", got, want)
	}
	hits, misses := ad.Inum.ShapeStats()
	if got := resolveCalls(se); got != 0 {
		t.Fatalf("no-op re-solve made %d γ evaluations", got)
	}
	if h, m := ad.Inum.ShapeStats(); h+m != hits+misses {
		t.Fatalf("no-op re-solve made %d INUM lookups", h+m-hits-misses)
	}
	se.SetConstraints(FractionOfData(cat, 0.8))
	if got := resolveCalls(se); got != 0 {
		t.Fatalf("re-solve after a budget change made %d γ evaluations", got)
	}
	reweighted := &workload.Workload{Name: "reweighted"}
	for i, st := range w.Statements {
		reweighted.Statements = append(reweighted.Statements, &workload.Statement{Query: st.Query, Update: st.Update, Weight: float64(1 + i%4)})
	}
	se.SetWorkload(reweighted)
	if got := resolveCalls(se); got != 0 {
		t.Fatalf("re-solve after a re-weight made %d γ evaluations", got)
	}

	want := compileCalls(reweighted, cands) - compileCalls(reweighted, s)
	se.AddCandidates(delta)
	if got := resolveCalls(se); got != want || want <= 0 {
		t.Fatalf("re-solve after AddCandidates made %d γ evaluations, want compile(S∪Δ)−compile(S) = %d", got, want)
	}

	appended := all.Statements[30:]
	want = compileCalls(&workload.Workload{Statements: appended}, cands)
	se.SetWorkload(&workload.Workload{Name: "grown", Statements: append(append([]*workload.Statement(nil), reweighted.Statements...), appended...)})
	if got := resolveCalls(se); got != want || want <= 0 {
		t.Fatalf("re-solve after appending %d statements made %d γ evaluations, want theirs alone = %d", len(appended), got, want)
	}

	// Dropping candidates renumbers the kept slabs and evaluates nothing;
	// dropping more while bringing the first ones back evaluates only
	// those.
	grown, q := se.Workload(), len(cands)/4
	back := cands[q : 2*q]
	kept := append(append([]*catalog.Index(nil), cands[:q]...), cands[2*q:]...)
	if dropped := se.SetCandidates(kept); dropped != len(back) {
		t.Fatalf("SetCandidates dropped %d candidates, want %d", dropped, len(back))
	}
	if got := resolveCalls(se); got != 0 {
		t.Fatalf("re-solve after dropping %d candidates made %d γ evaluations", len(back), got)
	}
	kept = kept[:len(kept)/2]
	next := append(append([]*catalog.Index(nil), kept...), back...)
	want = compileCalls(grown, next) - compileCalls(grown, kept)
	se.SetCandidates(next)
	if got := resolveCalls(se); got != want || want <= 0 {
		t.Fatalf("re-solve after a drop plus Δ made %d γ evaluations, want Δ's alone = %d", got, want)
	}
}

// TestSessionCollidingIDs: a session solved on one generated workload and
// then handed another that reuses its statement IDs for different
// statements must build what a fresh advisor builds for the second
// workload, and solve as a control session with the same warm state
// whose INUM cache and compiled problem were thrown away. Kept state is
// matched by statement identity, never by ID.
func TestSessionCollidingIDs(t *testing.T) {
	ad, cat, _ := testAdvisor(t)
	first := workload.Hom(workload.HomConfig{Queries: 30, Seed: 1})
	second := workload.Hom(workload.HomConfig{Queries: 30, Seed: 2})
	cands := Candidates(cat, &workload.Workload{Statements: append(append([]*workload.Statement(nil), first.Statements...), second.Statements...)}, CGenOptions{Covering: true})
	cons := FractionOfData(cat, 0.5)

	ctlAd := NewAdvisor(cat, engine.New(cat, engine.SystemA()), ad.Opts)
	se, ctl := ad.NewSession(first, cands, cons), ctlAd.NewSession(first, cands, cons)
	for _, s := range []*Session{se, ctl} {
		if res, err := s.Solve(); err != nil || res.Infeasible {
			t.Fatalf("first solve: %+v, %v", res, err)
		}
		s.SetWorkload(second)
	}
	_, got, _, err := ad.prepare(context.Background(), &se.built, se.w, se.s, se.cons)
	if err != nil {
		t.Fatal(err)
	}

	fresh := NewAdvisor(cat, engine.New(cat, engine.SystemA()), ad.Opts)
	inst := fresh.instance(second, cands)
	want, err := BuildModel(inst)
	if err == nil {
		err = applyConstraints(inst, want, cons)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("model built over a colliding-ID workload differs from a fresh advisor's")
	}

	ctlAd.Inum = inum.New(ctlAd.Eng)
	ctl.built = compiled{}
	a, err := se.Solve()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctl.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Selected, b.Selected) || a.EstCost != b.EstCost || a.Lower != b.Lower {
		t.Fatalf("colliding-ID session solved to (%v, %v), the control to (%v, %v)", a.EstCost, a.Lower, b.EstCost, b.Lower)
	}
}
