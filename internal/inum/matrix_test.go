package inum

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/workload"
)

// matrixCandidates builds a varied candidate set over the workload's
// tables: single-column, two-column and covering-ish indexes.
func matrixCandidates(t *testing.T, w *workload.Workload) []*catalog.Index {
	t.Helper()
	seen := map[string]bool{}
	var out []*catalog.Index
	add := func(ix *catalog.Index) {
		if !seen[ix.ID()] {
			seen[ix.ID()] = true
			out = append(out, ix)
		}
	}
	for _, st := range w.Queries() {
		q := st.Query
		for _, table := range q.Tables {
			cols := q.ColumnsOf(table)
			for _, c := range cols {
				add(&catalog.Index{Table: table, Key: []string{c}})
			}
			if len(cols) >= 2 {
				add(&catalog.Index{Table: table, Key: []string{cols[0], cols[1]}})
				add(&catalog.Index{Table: table, Key: []string{cols[0]}, Include: cols[1:]})
			}
		}
	}
	if len(out) < 10 {
		t.Fatalf("candidate generator too weak: %d candidates", len(out))
	}
	return out
}

// TestCostMatrixMatchesMapPath is the dense-vs-map equivalence
// property test: for randomized configurations X, the CostMatrix
// evaluation of cost(q, X) must equal the reference map-based path
// within 1e-9.
func TestCostMatrixMatchesMapPath(t *testing.T) {
	_, cache, base := testSetup(t)
	w := workload.Hom(workload.HomConfig{Queries: 15, Seed: 421})
	cache.Prepare(w)
	s := matrixCandidates(t, w)
	cm := cache.CompileMatrix(w, s, base, 0)

	rng := rand.New(rand.NewSource(99))
	sel := make([]bool, len(s))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		// Random configuration: each candidate in with probability p.
		p := []float64{0.05, 0.2, 0.5, 0.9}[trial%4]
		cfg := engine.NewConfig()
		for _, bx := range base.Indexes() {
			cfg.Add(bx)
		}
		for i := range sel {
			sel[i] = rng.Float64() < p
			if sel[i] {
				cfg.Add(s[i])
			}
		}
		for _, st := range w.Queries() {
			q := st.Query
			qm := cm.Query(q)
			if qm == nil {
				t.Fatalf("no matrix entry for %s", q.ID)
			}
			dense, dok := qm.Cost(sel)
			ref, err := cache.Cost(q, cfg)
			if err != nil {
				if dok {
					t.Fatalf("%s: map path infeasible but dense path returned %v", q.ID, dense)
				}
				continue
			}
			if !dok {
				t.Fatalf("%s: dense path infeasible but map path returned %v", q.ID, ref)
			}
			if math.Abs(dense-ref) > 1e-9*math.Max(1, math.Abs(ref)) {
				t.Fatalf("%s: dense cost %v != map cost %v (p=%v)", q.ID, dense, ref, p)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("property test checked nothing")
	}
}

// TestCostDeltaMatchesCost pins the benefit-scan shortcut to the plain
// evaluation: CostDelta(sel, a) must equal Cost(sel ∪ {a}).
func TestCostDeltaMatchesCost(t *testing.T) {
	_, cache, base := testSetup(t)
	w := workload.Hom(workload.HomConfig{Queries: 8, Seed: 77})
	cache.Prepare(w)
	s := matrixCandidates(t, w)
	cm := cache.CompileMatrix(w, s, base, 0)

	rng := rand.New(rand.NewSource(5))
	sel := make([]bool, len(s))
	for i := range sel {
		sel[i] = rng.Float64() < 0.3
	}
	for _, st := range w.Queries() {
		qm := cm.Query(st.Query)
		for a := 0; a < len(s); a += 3 {
			dv, dok := qm.CostDelta(sel, int32(a))
			was := sel[a]
			sel[a] = true
			cv, cok := qm.Cost(sel)
			sel[a] = was
			if dok != cok || (dok && dv != cv) {
				t.Fatalf("%s: CostDelta(%d)=%v,%v but Cost=%v,%v", st.Query.ID, a, dv, dok, cv, cok)
			}
		}
	}
	_ = rng
}

// TestCompileMatrixDeterministic ensures the parallel compilation
// produces identical slabs regardless of worker interleaving.
func TestCompileMatrixDeterministic(t *testing.T) {
	_, cache, base := testSetup(t)
	w := workload.Hom(workload.HomConfig{Queries: 10, Seed: 13})
	cache.Prepare(w)
	s := matrixCandidates(t, w)

	a := cache.CompileMatrix(w, s, base, 0)
	b := cache.CompileMatrix(w, s, base, 0)
	for _, st := range w.Queries() {
		qa, qb := a.Query(st.Query), b.Query(st.Query)
		if qa == nil || qb == nil {
			t.Fatalf("missing matrix entry for %s", st.Query.ID)
		}
		if len(qa.Gamma) != len(qb.Gamma) || len(qa.Compat) != len(qb.Compat) {
			t.Fatalf("%s: slab shapes differ", st.Query.ID)
		}
		for i := range qa.Gamma {
			if qa.Gamma[i] != qb.Gamma[i] || qa.Compat[i] != qb.Compat[i] {
				t.Fatalf("%s: slab entry %d differs", st.Query.ID, i)
			}
		}
	}
}

// TestUpdateMatrixMatchesCompile drives one matrix through seeded random
// revisions of its candidate list — drops, appends, reorders and their
// mixes — and holds every slab to a from-nothing CompileMatrix over the
// new list, bit for bit. An update evaluates γ only for the positions it
// treats as appended: those after the longest prefix of the new list
// that is a subsequence of the old one. A pure drop evaluates nothing.
func TestUpdateMatrixMatchesCompile(t *testing.T) {
	eng, cache, base := testSetup(t)
	w := workload.Hom(workload.HomConfig{Queries: 12, Seed: 31})
	cache.Prepare(w)
	pool := matrixCandidates(t, w)
	rng := rand.New(rand.NewSource(20261016))

	gammaCalls := func(s []*catalog.Index) int64 {
		eng.ResetSlotCostCalls()
		cache.CompileMatrix(w, s, base, 1)
		return eng.SlotCostCalls()
	}
	free := gammaCalls(nil)

	s := append([]*catalog.Index(nil), pool[:len(pool)/2]...)
	cm := cache.CompileMatrix(w, s, base, 5)
	for step := 0; step < 48; step++ {
		next := reviseCandidates(rng, step%6, s, pool)
		from := subsequencePrefix(next, s)
		want := gammaCalls(next[from:]) - free
		eng.ResetSlotCostCalls()
		cache.UpdateMatrix(cm, w, next, base, 5)
		if got := eng.SlotCostCalls(); got != want {
			t.Fatalf("step %d: update made %d γ evaluations, the %d appended positions cost %d", step, got, len(next)-from, want)
		}
		ref := cache.CompileMatrix(w, next, base, 1)
		for _, st := range w.Queries() {
			if err := sameSlab(cm.Query(st.Query), ref.Query(st.Query)); err != "" {
				t.Fatalf("step %d, %s: updated slab differs from a fresh compile in %s", step, st.Query.ID, err)
			}
		}
		s = next
	}
}

// reviseCandidates returns a revision of s: drop (kind 0), append from
// pool (1), move a few to the end (2), shuffle (3), leave as is (4), or
// drop, move and append at once (5).
func reviseCandidates(rng *rand.Rand, kind int, s, pool []*catalog.Index) []*catalog.Index {
	next := append([]*catalog.Index(nil), s...)
	if kind == 0 || kind == 5 {
		kept := next[:0]
		for _, ix := range next {
			if rng.Intn(4) != 0 {
				kept = append(kept, ix)
			}
		}
		next = kept
	}
	if (kind == 2 || kind == 5) && len(next) > 1 {
		for k := 0; k < 3; k++ {
			i := rng.Intn(len(next) - 1)
			moved := next[i]
			next = append(append(next[:i], next[i+1:]...), moved)
		}
	}
	if kind == 3 {
		rng.Shuffle(len(next), func(i, j int) { next[i], next[j] = next[j], next[i] })
	}
	if kind == 1 || kind == 5 {
		in := map[*catalog.Index]bool{}
		for _, ix := range next {
			in[ix] = true
		}
		for _, i := range rng.Perm(len(pool))[:len(pool)/5] {
			if !in[pool[i]] {
				next = append(next, pool[i])
			}
		}
	}
	return next
}

// subsequencePrefix returns the length of the longest prefix of next
// whose candidates occur in old in the same order.
func subsequencePrefix(next, old []*catalog.Index) int {
	for k := len(next); k > 0; k-- {
		j := 0
		for _, ix := range old {
			if j < k && next[j] == ix {
				j++
			}
		}
		if j == k {
			return k
		}
	}
	return 0
}

// sameSlab names the first field in which two slabs differ, or returns
// "" when they are equal to the last bit.
func sameSlab(a, b *QueryMatrix) string {
	if a == nil || b == nil {
		return "presence"
	}
	sameBits := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	switch {
	case !sameBits(a.Internal, b.Internal):
		return "Internal"
	case !slices.Equal(a.TmplOff, b.TmplOff):
		return "TmplOff"
	case !slices.Equal(a.Refs, b.Refs):
		return "Refs"
	case !sameBits(a.SlotFree, b.SlotFree):
		return "SlotFree"
	case !slices.Equal(a.SlotOff, b.SlotOff):
		return "SlotOff"
	case !slices.Equal(a.Compat, b.Compat):
		return "Compat"
	case !sameBits(a.Gamma, b.Gamma):
		return "Gamma"
	}
	return ""
}
