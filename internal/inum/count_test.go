package inum

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/par"
	"repro/internal/workload"
)

// gammaCost is Cache.Cost walked through Cache.Gamma, which counts its
// one γ kernel run per call: templates in order, a slot reading the
// minimum of its distinct slot once that is priced, a template abandoned
// at its first unfillable slot.
func gammaCost(c *Cache, qi *QueryInfo, cfg *engine.Config) float64 {
	en := qi.shape
	mins := map[int32]float64{}
	best := math.Inf(1)
	for ti, t := range qi.Templates {
		total := t.Internal
		feasible := true
		for si := range t.Slots {
			d := en.refs[int(en.tmplOff[ti])+si]
			m, ok := mins[d]
			if !ok {
				m = math.Inf(1)
				if g, ok := c.Gamma(qi, ti, si, nil); ok {
					m = g
				}
				for _, ix := range cfg.OnTable(t.Slots[si].Table) {
					if g, ok := c.Gamma(qi, ti, si, ix); ok && g < m {
						m = g
					}
				}
				mins[d] = m
			}
			if math.IsInf(m, 1) {
				feasible = false
				break
			}
			total += m
		}
		if feasible && total < best {
			best = total
		}
	}
	return best
}

// TestParallelCompileCountsExactly: the γ kernel does not count itself,
// so every caller must report what it ran. A compile reports the same
// SlotCostCalls with one worker as with more workers than cores, and
// that count is one run per distinct slot of a shape for the free access,
// each baseline index and each candidate on its table. One Cache.Cost
// adds exactly the runs of the same walk made through Gamma, and the
// Cost calls of a parallel fan-out add up exactly.
func TestParallelCompileCountsExactly(t *testing.T) {
	eng, cache, base := testSetup(t)
	rng := rand.New(rand.NewSource(53))
	for _, w := range []*workload.Workload{
		workload.Hom(workload.HomConfig{Queries: 200, Seed: 53}),
		workload.Het(workload.HetConfig{Queries: 40, Seed: 53}),
	} {
		s := matrixCandidates(t, w)
		cache.Prepare(w)

		var want int64
		byTable := map[string]int64{}
		for _, ix := range s {
			byTable[ix.Table]++
		}
		classes := map[*shapeEntry]bool{}
		for _, q := range distinctQueries(w) {
			qi := cache.PrepareQuery(q)
			if classes[qi.shape] {
				continue
			}
			classes[qi.shape] = true
			for _, slot := range qi.shape.slots {
				want += 1 + int64(len(base.OnTable(slot.Table))) + byTable[slot.Table]
			}
		}
		for _, workers := range []int{1, 2*runtime.GOMAXPROCS(0) + 3} {
			eng.ResetSlotCostCalls()
			cache.CompileMatrix(w, s, base, workers)
			if got := eng.SlotCostCalls(); got != want {
				t.Fatalf("%s, %d workers: compile counted %d γ runs, want %d", w.Name, workers, got, want)
			}
		}

		queries := distinctQueries(w)
		cfgs := make([]*engine.Config, len(queries))
		for i := range cfgs {
			var on []*catalog.Index
			for _, ix := range s {
				if rng.Intn(4) == 0 {
					on = append(on, ix)
				}
			}
			cfgs[i] = base.Union(engine.NewConfig(on...))
		}
		var sum int64
		for i, q := range queries {
			before := eng.SlotCostCalls()
			got, err := cache.Cost(q, cfgs[i])
			if err != nil {
				t.Fatal(err)
			}
			calls := eng.SlotCostCalls() - before
			ref := gammaCost(cache, cache.PrepareQuery(q), cfgs[i])
			refCalls := eng.SlotCostCalls() - before - calls
			if math.Float64bits(got) != math.Float64bits(ref) || calls != refCalls {
				t.Fatalf("%s %s: Cost %v counted %d γ runs; through Gamma %v in %d", w.Name, q.ID, got, calls, ref, refCalls)
			}
			sum += calls
		}
		eng.ResetSlotCostCalls()
		par.For(len(queries), 2*runtime.GOMAXPROCS(0)+3, func(i int) {
			if _, err := cache.Cost(queries[i], cfgs[i]); err != nil {
				panic(err)
			}
		})
		if got := eng.SlotCostCalls(); got != sum {
			t.Fatalf("%s: concurrent Cost calls counted %d γ runs, one at a time %d", w.Name, got, sum)
		}
	}
}
