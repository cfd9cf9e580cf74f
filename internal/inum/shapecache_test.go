package inum

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// TestShapeCacheEquivalence is the ISSUE's equivalence pin: template
// sets and compiled CostMatrix slabs served through the shape cache
// must be byte-identical to uncached derivations — same template
// count, same β bits, same slots, same γ slabs — over randomized
// homogeneous workloads. The control derives every query in its own
// fresh Cache, so no control derivation can hit a shape entry.
func TestShapeCacheEquivalence(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	base := engine.NewConfig(tpch.BaselineIndexes(cat)...)

	var totalHits int64
	for _, seed := range []int64{101, 202} {
		w := workload.Hom(workload.HomConfig{Queries: 120, Seed: seed})
		eng := engine.New(cat, engine.SystemA())
		engCtl := engine.New(cat, engine.SystemA())

		shared := New(eng)
		shared.Prepare(w)
		hits, _ := shared.ShapeStats()
		totalHits += hits

		cands := matrixCandidates(t, w)
		cmA := shared.CompileMatrix(w, cands, base, 0)

		seen := map[string]bool{}
		for _, st := range w.Queries() {
			q := st.Query
			if seen[q.ID] {
				continue
			}
			seen[q.ID] = true

			ctl := New(engCtl) // fresh cache: this derivation cannot be shape-cached
			qiB := ctl.PrepareQuery(q)
			qiA := shared.PrepareQuery(q)
			if len(qiA.Templates) != len(qiB.Templates) {
				t.Fatalf("seed %d %s: template counts %d vs %d", seed, q.ID, len(qiA.Templates), len(qiB.Templates))
			}
			for i := range qiA.Templates {
				a, b := qiA.Templates[i], qiB.Templates[i]
				if math.Float64bits(a.Internal) != math.Float64bits(b.Internal) {
					t.Fatalf("seed %d %s template %d: β bits differ: %v vs %v", seed, q.ID, i, a.Internal, b.Internal)
				}
				if !reflect.DeepEqual(a.Slots, b.Slots) {
					t.Fatalf("seed %d %s template %d: slots differ:\n  %+v\n  %+v", seed, q.ID, i, a.Slots, b.Slots)
				}
			}

			// The dense slab compiled from the shape-cached entry must
			// be byte-identical to the control's.
			cmB := ctl.CompileMatrix(&workload.Workload{Statements: []*workload.Statement{st}}, cands, base, 1)
			qa, qb := cmA.Query(q), cmB.Query(q)
			if qa == nil || qb == nil {
				t.Fatalf("seed %d %s: missing matrix block (%v, %v)", seed, q.ID, qa != nil, qb != nil)
			}
			sameI32 := func(x, y []int32) bool { return reflect.DeepEqual(x, y) }
			sameF64 := func(x, y []float64) bool {
				if len(x) != len(y) {
					return false
				}
				for i := range x {
					if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
						return false
					}
				}
				return true
			}
			if !sameF64(qa.Internal, qb.Internal) || !sameI32(qa.TmplOff, qb.TmplOff) || !sameI32(qa.Refs, qb.Refs) ||
				!sameF64(qa.SlotFree, qb.SlotFree) || !sameI32(qa.SlotOff, qb.SlotOff) ||
				!sameI32(qa.Compat, qb.Compat) || !sameF64(qa.Gamma, qb.Gamma) {
				t.Fatalf("seed %d %s: CostMatrix slabs differ between shape-cached and uncached compilation", seed, q.ID)
			}
		}
	}
	// Non-vacuous: the shared caches must actually have served some
	// derivations from the shape cache, or this pinned nothing.
	if totalHits == 0 {
		t.Fatal("equivalence pin vacuous: no shape-cache hits across all seeds")
	}
}

// TestConcurrentShapeCacheStress hammers the shape cache from many
// goroutines with distinct statements sharing few shapes — the
// singleflight path — interleaved with stat reads. Run under -race it checks the locking; in any mode it checks
// that same-shape statements observe the same immutable template set.
func TestConcurrentShapeCacheStress(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.02})
	eng := engine.New(cat, engine.SystemA())
	base := workload.Hom(workload.HomConfig{Queries: 12, Seed: 77})

	// Clone each query under several statement IDs: distinct statements,
	// identical shapes, so concurrent PrepareQuery calls collide on the
	// same shape entries.
	var stmts []*workload.Statement
	for _, st := range base.Queries() {
		for k := 0; k < 4; k++ {
			q := *st.Query
			q.ID = q.ID + "#" + string(rune('a'+k))
			stmts = append(stmts, &workload.Statement{Query: &q, Weight: 1})
		}
	}

	cache := New(eng)
	const G = 8
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 3*len(stmts); i++ {
				st := stmts[rng.Intn(len(stmts))]
				qi := cache.PrepareQuery(st.Query)
				if qi == nil || len(qi.Templates) == 0 {
					t.Errorf("goroutine %d: empty preparation for %s", g, st.Query.ID)
					return
				}
				switch i % 4 {
				case 0:
					cache.ShapeStats()
				case 1:
					cache.ShapeCount()
				case 2:
					cache.ShapeEvictions()
				}
			}
		}(g)
	}
	wg.Wait()

	// Same shape ⇒ same immutable template slice, shared by pointer.
	before, _ := cache.ShapeStats()
	for _, st := range base.Queries() {
		ref := cache.PrepareQuery(st.Query).Templates
		for k := 0; k < 4; k++ {
			q := *st.Query
			q.ID = st.Query.ID + "#" + string(rune('a'+k))
			if !sameTemplates(ref, cache.PrepareQuery(&q).Templates) {
				t.Fatalf("%s: same shape not sharing the immutable template set", q.ID)
			}
		}
	}
	hits, misses := cache.ShapeStats()
	if want := before + int64(5*len(base.Queries())); hits != want {
		t.Fatalf("every lookup after the stress should hit: %d hits, want %d", hits, want)
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("stress vacuous: hits=%d misses=%d", hits, misses)
	}
}

// sameTemplates reports whether two template sets are the same shared
// set: equal length and the same *Template at every position.
func sameTemplates(a, b []*Template) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConcurrentPrepareQueryStress hammers PrepareQuery, Cost and
// ShapeStats from many goroutines over an overlapping query set; run
// under -race it checks the cache's locking. Every caller must observe
// the same immutable template set for a given query (one derivation
// per shape, shared by pointer).
func TestConcurrentPrepareQueryStress(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.02})
	eng := engine.New(cat, engine.SystemA())
	w := workload.Hom(workload.HomConfig{Queries: 24, Seed: 32})
	cfg := engine.NewConfig(tpch.BaselineIndexes(cat)...)
	cache := New(eng)
	stmts := w.Queries()

	workers := 4 * runtime.GOMAXPROCS(0)
	rounds := 8
	got := make([][][]*Template, workers)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			got[wi] = make([][]*Template, len(stmts))
			for r := 0; r < rounds; r++ {
				for si := range stmts {
					// Stagger the start so goroutines collide on
					// different shapes each round.
					at := (si + wi) % len(stmts)
					q := stmts[at].Query
					qi := cache.PrepareQuery(q)
					if qi.Query != q || len(qi.Templates) == 0 {
						t.Errorf("%s: bad QueryInfo", q.ID)
						return
					}
					got[wi][at] = qi.Templates
					if _, err := cache.Cost(q, cfg); err != nil {
						t.Errorf("%s: cost: %v", q.ID, err)
						return
					}
					cache.ShapeStats()
				}
			}
		}(wi)
	}
	wg.Wait()
	for wi := 1; wi < workers; wi++ {
		for si := range stmts {
			if !sameTemplates(got[wi][si], got[0][si]) {
				t.Fatalf("query %d: workers observed distinct template sets", si)
			}
		}
	}
}

// TestShapeBound: the shape map is the cache's one bound. Seeding
// maxShapes+k shapes leaves maxShapes shapes and counts k evictions,
// oldest first.
func TestShapeBound(t *testing.T) {
	_, cache, _ := testSetup(t)
	const k = 7
	fps := make([]string, maxShapes+k)
	for i := range fps {
		fps[i] = fmt.Sprintf("synthetic-%05d", i)
		cache.seedShape(fps[i], []*Template{{Internal: float64(i), Slots: []Slot{{Table: "orders"}}}})
	}
	if got := cache.ShapeCount(); got != maxShapes {
		t.Fatalf("ShapeCount = %d, want the bound %d", got, maxShapes)
	}
	if got := cache.ShapeEvictions(); got != k {
		t.Fatalf("ShapeEvictions = %d, want %d", got, k)
	}
	cache.mu.Lock()
	oldest := cache.order[0]
	cache.mu.Unlock()
	if oldest != fps[k] {
		t.Fatalf("oldest surviving shape is %s, want %s", oldest, fps[k])
	}
}
