package inum

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/workload"
)

// referenceSlab prices every (template, slot, candidate) of qi on its
// own through Cache.Gamma, with no slot sharing its pricing: SlotFree is
// the cheapest of the heap and the baseline indexes, and a candidate is
// kept iff its γ is below it, in ascending position order.
func referenceSlab(c *Cache, qi *QueryInfo, s []*catalog.Index, baseline *engine.Config) *QueryMatrix {
	qm := &QueryMatrix{TmplOff: []int32{0}, SlotOff: []int32{0}}
	for ti, tpl := range qi.Templates {
		qm.Internal = append(qm.Internal, tpl.Internal)
		for si := range tpl.Slots {
			free := math.Inf(1)
			if g, ok := c.Gamma(qi, ti, si, nil); ok {
				free = g
			}
			for _, bx := range baseline.OnTable(tpl.Slots[si].Table) {
				if g, ok := c.Gamma(qi, ti, si, bx); ok && g < free {
					free = g
				}
			}
			qm.SlotFree = append(qm.SlotFree, free)
			for pos, ix := range s {
				if g, ok := c.Gamma(qi, ti, si, ix); ok && g < free {
					qm.Compat = append(qm.Compat, int32(pos))
					qm.Gamma = append(qm.Gamma, g)
				}
			}
			qm.SlotOff = append(qm.SlotOff, int32(len(qm.Compat)))
		}
		qm.TmplOff = append(qm.TmplOff, int32(len(qm.SlotFree)))
	}
	return qm
}

// slotDiffs names the Slot fields in which a and b differ.
func slotDiffs(a, b *Slot) []string {
	var d []string
	if a.Table != b.Table {
		d = append(d, "Table")
	}
	if a.Mode != b.Mode {
		d = append(d, "Mode")
	}
	if !slices.Equal(a.RequiredOrder, b.RequiredOrder) {
		d = append(d, "RequiredOrder")
	}
	if a.JoinCol != b.JoinCol {
		d = append(d, "JoinCol")
	}
	if math.Float64bits(a.Lookups) != math.Float64bits(b.Lookups) {
		d = append(d, "Lookups")
	}
	if !slices.Equal(a.NeedCols, b.NeedCols) {
		d = append(d, "NeedCols")
	}
	return d
}

// repeatCoverage counts, over the distinct template sets of w's
// statements, the repeated slots (key "repeat") and the slot pairs of
// one set that differ in exactly one field (keyed by the field).
func repeatCoverage(c *Cache, w *workload.Workload) map[string]int {
	got := map[string]int{}
	seen := map[*shapeEntry]bool{}
	for _, q := range distinctQueries(w) {
		qi := c.PrepareQuery(q)
		if seen[qi.shape] {
			continue
		}
		seen[qi.shape] = true
		flat := flatSlots(qi)
		for n := range flat {
			if distinctBefore(flat, n) >= 0 {
				got["repeat"]++
			}
			for m := range n {
				if d := slotDiffs(flat[m], flat[n]); len(d) == 1 {
					got[d[0]]++
				}
			}
		}
	}
	return got
}

// flatSlots returns the slots of qi's templates, template by template.
func flatSlots(qi *QueryInfo) []*Slot {
	var flat []*Slot
	for _, tpl := range qi.Templates {
		for si := range tpl.Slots {
			flat = append(flat, &tpl.Slots[si])
		}
	}
	return flat
}

// distinctBefore returns the first m < n whose slot equals flat[n] in
// every field, or -1 when none does.
func distinctBefore(flat []*Slot, n int) int {
	for m := range n {
		if len(slotDiffs(flat[m], flat[n])) == 0 {
			return m
		}
	}
	return -1
}

// checkDistinctSlots holds a slab to its format: through Refs, every
// use of one distinct slot is the same Slot in every field and no two
// distinct slots are equal, and SlotFree has one entry per distinct slot
// of the shape's templates. It names the first breach, or returns "".
func checkDistinctSlots(qm *QueryMatrix) string {
	flat := flatSlots(qm.QI)
	if len(qm.Refs) != len(flat) || int(qm.TmplOff[len(qm.TmplOff)-1]) != len(flat) {
		return fmt.Sprintf("%d refs for %d template slots", len(qm.Refs), len(flat))
	}
	distinct := 0
	first := map[int32]int{}
	for n, d := range qm.Refs {
		m := distinctBefore(flat, n)
		if m < 0 {
			distinct++
		}
		switch f, seen := first[d]; {
		case !seen && m >= 0:
			return fmt.Sprintf("slot %d has its own distinct slot %d but equals slot %d", n, d, m)
		case !seen:
			first[d] = n
		case len(slotDiffs(flat[f], flat[n])) > 0:
			return fmt.Sprintf("slots %d and %d share distinct slot %d but differ in %v", f, n, d, slotDiffs(flat[f], flat[n]))
		}
	}
	if len(qm.SlotFree) != distinct || len(qm.SlotOff) != distinct+1 {
		return fmt.Sprintf("%d SlotFree entries and %d SlotOff entries for %d distinct slots", len(qm.SlotFree), len(qm.SlotOff), distinct)
	}
	return ""
}

// expandSlab returns qm with every template slot's run copied out of its
// distinct slot: the layout of a slab that stores one run per template
// slot, which referenceSlab builds.
func expandSlab(qm *QueryMatrix) *QueryMatrix {
	ex := &QueryMatrix{Internal: qm.Internal, TmplOff: qm.TmplOff, SlotOff: []int32{0}}
	for _, d := range qm.Refs {
		lo, hi := qm.SlotOff[d], qm.SlotOff[d+1]
		ex.SlotFree = append(ex.SlotFree, qm.SlotFree[d])
		ex.Compat = append(ex.Compat, qm.Compat[lo:hi]...)
		ex.Gamma = append(ex.Gamma, qm.Gamma[lo:hi]...)
		ex.SlotOff = append(ex.SlotOff, int32(len(ex.Compat)))
	}
	return ex
}

// checkRepeatedSlots compiles w's slabs over pool[:len(pool)/2], brings
// them through revisions of the candidate list, and after each holds
// every slab to its format (checkDistinctSlots), its runs expanded
// through Refs to referenceSlab bit for bit, and Cache.Cost to the
// slab's Cost under a random configuration.
func checkRepeatedSlots(t *testing.T, c *Cache, w *workload.Workload, pool []*catalog.Index, base *engine.Config, rng *rand.Rand) {
	t.Helper()
	s := append([]*catalog.Index(nil), pool[:len(pool)/2]...)
	cm := c.CompileMatrix(w, s, base, 2)
	for step := 0; step <= 12; step++ {
		if step > 0 {
			s = reviseCandidates(rng, (step-1)%6, s, pool)
			c.UpdateMatrix(cm, w, s, base, 2)
		}
		sel := make([]bool, len(s))
		cfg := base.Union(nil)
		for i := range sel {
			if sel[i] = rng.Intn(3) == 0; sel[i] {
				cfg.Add(s[i])
			}
		}
		for _, q := range distinctQueries(w) {
			qm := cm.Query(q)
			if err := checkDistinctSlots(qm); err != "" {
				t.Fatalf("step %d, %s: slab format: %s", step, q.ID, err)
			}
			if err := sameSlab(expandSlab(qm), referenceSlab(c, c.PrepareQuery(q), s, base)); err != "" {
				t.Fatalf("step %d, %s: slab differs from pricing every slot alone in %s", step, q.ID, err)
			}
			dense, dok := qm.Cost(sel)
			ref, err := c.Cost(q, cfg)
			if dok != (err == nil) || (dok && math.Float64bits(dense) != math.Float64bits(ref)) {
				t.Fatalf("step %d, %s: slab cost %v, %v but Cache.Cost %v, %v", step, q.ID, dense, dok, ref, err)
			}
		}
	}
}

// seedVariants returns a Cache holding, for every shape of w, the
// templates eng derives followed by two copies of each: one whose first
// slot with two or more needed columns needs one fewer, and one whose
// first lookup slot probes twice as often. Derivations never produce
// slot pairs differing only in NeedCols (a table's needed columns are
// the statement's), and the homogeneous fixture none differing only in
// Lookups (its templates probe each table from one join position).
func seedVariants(eng *engine.Engine, w *workload.Workload) *Cache {
	c := New(eng)
	seeded := map[string]bool{}
	for _, q := range distinctQueries(w) {
		fp := eng.ShapeFingerprint(q)
		if seeded[fp] {
			continue
		}
		seeded[fp] = true
		tpls := New(eng).PrepareQuery(q).Templates
		for _, tpl := range slices.Clone(tpls) {
			needIdx := slices.IndexFunc(tpl.Slots, func(s Slot) bool { return len(s.NeedCols) >= 2 })
			lookupIdx := slices.IndexFunc(tpl.Slots, func(s Slot) bool { return s.Mode == SlotLookup })
			if needIdx >= 0 {
				cp := &Template{Internal: tpl.Internal, Slots: slices.Clone(tpl.Slots)}
				cp.Slots[needIdx].NeedCols = cp.Slots[needIdx].NeedCols[:len(cp.Slots[needIdx].NeedCols)-1]
				tpls = append(tpls, cp)
			}
			if lookupIdx >= 0 {
				cp := &Template{Internal: tpl.Internal, Slots: slices.Clone(tpl.Slots)}
				cp.Slots[lookupIdx].Lookups *= 2
				tpls = append(tpls, cp)
			}
		}
		c.seedShape(fp, tpls)
	}
	return c
}

// TestRepeatedSlotsShareOneRun is the exactness differential for
// distinct slots: a compile prices and stores each distinct slot of a
// shape once and every template refers to it, and Cache.Cost reuses a
// repeated slot's minimum. On a homogeneous and a heterogeneous fixture,
// derived and then with seeded template variants (seedVariants), through
// a compile and twelve revisions of the candidate list, every slab holds
// one run per distinct slot, its runs expanded through Refs equal a
// reference that prices each (template, slot, candidate) independently
// with Cache.Gamma, and Cache.Cost equals the slab's Cost to the bit.
// Every fixture repeats slots and holds slot pairs that differ only in
// RequiredOrder and only in Lookups (the derived heterogeneous one and
// both seeded ones), and the seeded ones pairs that differ only in
// NeedCols.
func TestRepeatedSlotsShareOneRun(t *testing.T) {
	eng, _, base := testSetup(t)
	rng := rand.New(rand.NewSource(20261019))
	for _, fx := range []struct {
		name string
		w    *workload.Workload
		want []string
	}{
		{"hom-40", workload.Hom(workload.HomConfig{Queries: 40, Seed: 40}), []string{"repeat", "RequiredOrder"}},
		{"het-30", workload.Het(workload.HetConfig{Queries: 30, Seed: 24}), []string{"repeat", "RequiredOrder", "Lookups"}},
	} {
		pool := matrixCandidates(t, fx.w)
		derived := New(eng)
		derived.Prepare(fx.w)
		for _, run := range []struct {
			name string
			c    *Cache
			want []string
		}{
			{fx.name, derived, fx.want},
			{fx.name + " seeded", seedVariants(eng, fx.w), []string{"repeat", "RequiredOrder", "Lookups", "NeedCols"}},
		} {
			cov := repeatCoverage(run.c, fx.w)
			for _, k := range run.want {
				if cov[k] == 0 {
					t.Fatalf("%s: degenerate coverage %v, want %v", run.name, cov, run.want)
				}
			}
			t.Logf("%s: %v", run.name, cov)
			checkRepeatedSlots(t, run.c, fx.w, pool, base, rng)
		}
	}
}
