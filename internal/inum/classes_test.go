package inum

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/workload"
)

// soloControl compiles single statements, each in a Cache of its own
// over a separate engine, so no control compile can see another
// statement's shape entry or add to the matrix under test's γ count.
type soloControl struct {
	eng    *engine.Engine
	caches map[*workload.Query]*Cache
}

func newSoloControl(cat *catalog.Catalog) *soloControl {
	return &soloControl{eng: engine.New(cat, engine.SystemA()), caches: map[*workload.Query]*Cache{}}
}

// compile returns q's slab compiled alone over (s, baseline) and the γ
// evaluations that took.
func (sc *soloControl) compile(q *workload.Query, s []*catalog.Index, baseline *engine.Config) (*QueryMatrix, int64) {
	c := sc.caches[q]
	if c == nil {
		c = New(sc.eng)
		sc.caches[q] = c
	}
	w := &workload.Workload{Statements: []*workload.Statement{{Query: q, Weight: 1}}}
	sc.eng.ResetSlotCostCalls()
	cm := c.CompileMatrix(w, s, baseline, 1)
	return cm.Query(q), sc.eng.SlotCostCalls()
}

// checkShapeClasses holds cm, just brought to (w, s, baseline), to the
// sharing contract: statements of one shape fingerprint hold one slab,
// statements of different fingerprints never do, and every slab equals
// its statement compiled alone, bit for bit. It returns one member per
// class.
func checkShapeClasses(t *testing.T, step string, eng *engine.Engine, sc *soloControl, cm *CostMatrix, w *workload.Workload, s []*catalog.Index, baseline *engine.Config) []*workload.Query {
	t.Helper()
	slabOf := map[string]*QueryMatrix{}
	fpOf := map[*QueryMatrix]string{}
	var reps []*workload.Query
	for _, q := range distinctQueries(w) {
		fp, qm := eng.ShapeFingerprint(q), cm.Query(q)
		if qm == nil {
			t.Fatalf("%s, %s: no slab", step, q.ID)
		}
		if prior, ok := slabOf[fp]; !ok {
			reps = append(reps, q)
		} else if prior != qm {
			t.Fatalf("%s, %s: its shape class holds two slabs", step, q.ID)
		}
		if other, ok := fpOf[qm]; ok && other != fp {
			t.Fatalf("%s, %s: slab shared with a statement of another shape", step, q.ID)
		}
		slabOf[fp], fpOf[qm] = qm, fp
		solo, _ := sc.compile(q, s, baseline)
		if err := sameSlab(qm, solo); err != "" {
			t.Fatalf("%s, %s: slab differs from the statement compiled alone in %s", step, q.ID, err)
		}
	}
	return reps
}

// TestSharedSlabsMatchSoloCompile is the exactness differential for
// per-class compilation: over a workload heavy in repeated shapes (hom)
// plus one-of-a-kind statements (het), through seeded candidate drops,
// appends and reorders, workload churn and baseline changes, every
// statement's slab equals the statement compiled alone in a fresh
// Cache, the statements of one shape class hold one slab, and a compile
// or update spends exactly the γ evaluations of one member per class.
func TestSharedSlabsMatchSoloCompile(t *testing.T) {
	eng, cache, base := testSetup(t)
	hom := workload.Hom(workload.HomConfig{Queries: 300, Seed: 9})
	het := workload.Het(workload.HetConfig{Queries: 10, Seed: 9})
	full := &workload.Workload{Name: "mixed", Statements: append(append([]*workload.Statement(nil), hom.Statements...), het.Statements...)}
	pool := matrixCandidates(t, full)
	sc := newSoloControl(eng.Cat)
	rng := rand.New(rand.NewSource(20261017))

	// soloCalls sums, over one member per class, the γ evaluations of
	// compiling it alone: over s for a class new to the matrix, and over
	// appended minus over no candidates for a class it already held —
	// what an update appending to a kept slab costs.
	soloCalls := func(reps []*workload.Query, held map[string]bool, s, appended []*catalog.Index, baseline *engine.Config) int64 {
		var sum int64
		for _, q := range reps {
			if !held[eng.ShapeFingerprint(q)] {
				_, n := sc.compile(q, s, baseline)
				sum += n
				continue
			}
			_, n := sc.compile(q, appended, baseline)
			_, free := sc.compile(q, nil, baseline)
			sum += n - free
		}
		return sum
	}
	fingerprints := func(reps []*workload.Query) map[string]bool {
		fps := map[string]bool{}
		for _, q := range reps {
			fps[eng.ShapeFingerprint(q)] = true
		}
		return fps
	}

	s := append([]*catalog.Index(nil), pool[:len(pool)/2]...)
	eng.ResetSlotCostCalls()
	cm := cache.CompileMatrix(full, s, base, 3)
	calls := eng.SlotCostCalls()
	reps := checkShapeClasses(t, "compile", eng, sc, cm, full, s, base)
	if want := soloCalls(reps, nil, s, nil, base); calls != want {
		t.Fatalf("compile made %d γ evaluations, one member per class costs %d", calls, want)
	}
	if n := len(distinctQueries(full)); len(reps) > n*4/5 {
		t.Fatalf("degenerate workload: %d shape classes for %d statements", len(reps), n)
	}

	// A second baseline: the primary keys of every other table.
	var half []*catalog.Index
	for i, bx := range base.Indexes() {
		if i%2 == 0 {
			half = append(half, bx)
		}
	}
	baselines := [2]*engine.Config{base, engine.NewConfig(half...)}

	b := 0
	for step := 0; step < 30; step++ {
		name := fmt.Sprintf("step %d", step)
		next := reviseCandidates(rng, step%6, s, pool)
		// Workload churn: every third step keeps a random three quarters
		// of the statements, the next one restores them all.
		w := full
		if step%3 == 1 {
			w = &workload.Workload{Name: "churned"}
			for _, st := range full.Statements {
				if rng.Intn(4) != 0 {
					w.Statements = append(w.Statements, st)
				}
			}
		}
		held := fingerprints(reps)
		if step%7 == 6 {
			// A baseline change compiles every slab from nothing.
			b, held = 1-b, nil
		}

		eng.ResetSlotCostCalls()
		cache.UpdateMatrix(cm, w, next, baselines[b], 3)
		calls := eng.SlotCostCalls()
		reps = checkShapeClasses(t, name, eng, sc, cm, w, next, baselines[b])
		from := subsequencePrefix(next, s)
		if want := soloCalls(reps, held, next, next[from:], baselines[b]); calls != want {
			t.Fatalf("%s: update made %d γ evaluations (%d positions appended), one member per class costs %d", name, calls, len(next)-from, want)
		}
		s = next
	}
}

// TestReDerivedShapeGetsOwnSlab evicts a shape from the shape cache and
// brings a second statement of that shape into the matrix: the shape is
// derived again into a new template set, and the statements on the two
// sets hold two slabs — each equal to a solo compile — never one.
func TestReDerivedShapeGetsOwnSlab(t *testing.T) {
	eng, cache, base := testSetup(t)
	w := workload.Hom(workload.HomConfig{Queries: 4, Seed: 3})
	q1 := w.Queries()[0].Query
	q2 := new(workload.Query)
	*q2 = *q1
	q2.ID = q1.ID + "-again"
	s := matrixCandidates(t, w)
	sc := newSoloControl(eng.Cat)
	one := &workload.Workload{Statements: []*workload.Statement{{Query: q1, Weight: 1}}}
	cm := cache.CompileMatrix(one, s[:len(s)/2], base, 1)

	// Fill the cache with other shapes until q1's entry is evicted.
	fp := eng.ShapeFingerprint(q1)
	for i := 0; i < maxShapes; i++ {
		cache.seedShape(fmt.Sprintf("filler-%d", i), []*Template{{Internal: 1}})
	}
	cache.mu.Lock()
	_, resident := cache.shapes[fp]
	cache.mu.Unlock()
	if resident {
		t.Fatal("the shape was not evicted")
	}

	both := &workload.Workload{Statements: []*workload.Statement{{Query: q1, Weight: 1}, {Query: q2, Weight: 1}}}
	for _, cands := range [][]*catalog.Index{s[:len(s)/2], s} {
		cache.UpdateMatrix(cm, both, cands, base, 2)
		a, b := cm.Query(q1), cm.Query(q2)
		if a == b || &a.QI.Templates[0] == &b.QI.Templates[0] {
			t.Fatalf("%d candidates: statements on two derivations of one shape share a slab or a template set", len(cands))
		}
		for _, q := range []*workload.Query{q1, q2} {
			solo, _ := sc.compile(q, cands, base)
			if err := sameSlab(cm.Query(q), solo); err != "" {
				t.Fatalf("%d candidates, %s: slab differs from the statement compiled alone in %s", len(cands), q.ID, err)
			}
		}
	}
}
