package cophy

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/inum"
	"repro/internal/lagrange"
	"repro/internal/lp"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// maskedAndFull builds the instance's model under cons twice over one
// compile: as BIPGen emits it, and with a nil mask (every candidate's
// options emitted). It also returns the mask.
func maskedAndFull(t *testing.T, inst *Instance, cons Constraints) (masked, full *lagrange.Model, mask []bool) {
	t.Helper()
	cs := new(compiled)
	masked, err := cs.model(context.Background(), inst, cons)
	if err != nil {
		t.Fatal(err)
	}
	full = new(lagrange.Model)
	*full = *masked
	full.Blocks = make([]lagrange.Block, len(masked.Blocks))
	nilMask := make([]bool, masked.NumIndexes)
	for bi, st := range inst.Workload.Queries() {
		l, err := buildChoices(cs.mat.Query(st.Query), nilMask)
		if err != nil {
			t.Fatal(err)
		}
		full.Blocks[bi] = masked.Blocks[bi]
		full.Blocks[bi].SetLayout(l)
	}
	return masked, full, cs.mask
}

// naiveDominance is the dominance rule stated pairwise over an unmasked
// model's options, the reference the fast pass is held to: slots[a]
// maps each slot listing candidate a (numbered over the whole model) to
// its γ there, coef[r][a] is a's coefficient in side row r.
type naiveDominance struct {
	m     *lagrange.Model
	slots []map[int]float64
	coef  [][]float64
}

func newNaiveDominance(full *lagrange.Model) *naiveDominance {
	d := &naiveDominance{m: full, slots: make([]map[int]float64, full.NumIndexes)}
	for a := range d.slots {
		d.slots[a] = map[int]float64{}
	}
	serial := 0
	for _, b := range full.Blocks {
		for _, ch := range b.Choices {
			for _, s := range ch.Slots {
				for _, o := range s {
					if o.Index != lagrange.NoIndex {
						d.slots[o.Index][serial] = o.Cost
					}
				}
				serial++
			}
		}
	}
	for _, c := range full.Extra {
		row := make([]float64, full.NumIndexes)
		for _, t := range c.Terms {
			row[t.Index] += t.Coef
		}
		d.coef = append(d.coef, row)
	}
	return d
}

// geq reports j ⪰ i: j may take i's place in any selection.
func (d *naiveDominance) geq(j, i int) bool {
	m := d.m
	if m.Size[j] > m.Size[i] || m.FixedCost[j] > m.FixedCost[i] {
		return false
	}
	for s, gi := range d.slots[i] {
		if gj, ok := d.slots[j][s]; !ok || gj > gi {
			return false
		}
	}
	for r, c := range m.Extra {
		cj, ci := d.coef[r][j], d.coef[r][i]
		switch c.Sense {
		case lp.LE:
			if !(cj <= ci && ci >= 0) {
				return false
			}
		case lp.GE:
			if !(cj >= ci && ci <= 0) {
				return false
			}
		case lp.EQ:
			if cj != 0 || ci != 0 {
				return false
			}
		}
	}
	return true
}

// mask marks every candidate some other one strictly dominates.
func (d *naiveDominance) mask() []bool {
	mask := make([]bool, d.m.NumIndexes)
	for i := range mask {
		for j := range mask {
			if j != i && d.geq(j, i) && !d.geq(i, j) {
				mask[i] = true
				break
			}
		}
	}
	return mask
}

// dominator returns an unmasked candidate that dominates i.
func (d *naiveDominance) dominator(mask []bool, i int) int {
	for j, out := range mask {
		if !out && d.geq(j, i) {
			return j
		}
	}
	return -1
}

// bruteOptimum enumerates every selection of m's candidates and returns
// the least objective over the feasible ones.
func bruteOptimum(m *lagrange.Model) (best float64, feasible bool) {
	best = math.Inf(1)
	sel := make([]bool, m.NumIndexes)
	for bits := 0; bits < 1<<m.NumIndexes; bits++ {
		for a := range sel {
			sel[a] = bits>>a&1 == 1
		}
		if ok, _ := m.SelectionFeasible(sel); !ok {
			continue
		}
		if v, ok := m.Evaluate(sel); ok && v < best {
			best, feasible = v, true
		}
	}
	return best, feasible
}

// TestDominatedMaskRule pins the rule on a hand-made slab. Slot 0 lists
// candidates 0–4, slot 1 lists 0, 1, 3 and 4; 5 and 6 are listed
// nowhere. 0 and 1 are twins, and both stay. 2 is listed only in slot
// 0, where 0 is cheaper: masked. 3 is cheaper than 0 in slot 0 but
// larger, 4 cheaper but costlier to maintain: neither masks anything,
// and nothing masks them. 6, listed nowhere, is masked by 5 (no larger,
// cheaper to maintain) and by 0 or 1 (smaller, listed somewhere).
func TestDominatedMaskRule(t *testing.T) {
	qm := &inum.QueryMatrix{
		Internal: []float64{10},
		TmplOff:  []int32{0, 2},
		Refs:     []int32{0, 1},
		SlotFree: []float64{100, 100},
		SlotOff:  []int32{0, 5, 9},
		Compat:   []int32{0, 1, 2, 3, 4, 0, 1, 3, 4},
		Gamma:    []float64{5, 5, 6, 4, 4, 7, 7, 8, 6},
	}
	m := lagrange.NewModel(7)
	copy(m.Size, []float64{10, 10, 10, 11, 10, 20, 20})
	copy(m.FixedCost, []float64{1, 1, 1, 1, 2, 0, 1})
	row := func(sense lp.Sense, members ...int32) []lagrange.Constraint {
		c := lagrange.Constraint{Sense: sense, RHS: 1}
		for _, a := range members {
			c.Terms = append(c.Terms, lagrange.Term{Index: a, Coef: 1})
		}
		return []lagrange.Constraint{c}
	}
	for _, c := range []struct {
		name  string
		extra []lagrange.Constraint
		want  []bool
	}{
		{"no rows", nil, []bool{false, false, true, false, false, false, true}},
		// An LE row only penalizes 2: 0 and 1 may still take its place.
		{"LE on 2", row(lp.LE, 2), []bool{false, false, true, false, false, false, true}},
		// A GE row may need 2 itself.
		{"GE on 2", row(lp.GE, 2), []bool{false, false, false, false, false, false, true}},
		// An LE row over 0 and 1 stops them replacing 2 or 6; 5 still
		// replaces 6.
		{"LE on 0, 1", row(lp.LE, 0, 1), []bool{false, false, false, false, false, false, true}},
		// A GE row over 0 and 1 lets them replace anything outside it.
		{"GE on 0, 1", row(lp.GE, 0, 1), []bool{false, false, true, false, false, false, true}},
		// An EQ row pins its members out of the rule on both sides; 2,
		// kept now, still masks 6.
		{"EQ on 0, 1, 5", row(lp.EQ, 0, 1, 5), []bool{false, false, false, false, false, false, true}},
	} {
		m.Extra = c.extra
		key := newMaskKey(m, []*inum.QueryMatrix{qm})
		if got := dominatedMask(&key, 1); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: mask %v, want %v", c.name, got, c.want)
		}
	}

	// A template with an unfillable slot is not in the BIP, so 2's cheap
	// entry in such a template's other slot does not save it.
	dead := &inum.QueryMatrix{
		Internal: []float64{1},
		TmplOff:  []int32{0, 2},
		Refs:     []int32{0, 1},
		SlotFree: []float64{100, math.Inf(1)},
		SlotOff:  []int32{0, 1, 1},
		Compat:   []int32{2},
		Gamma:    []float64{1},
	}
	m.Extra = nil
	key := newMaskKey(m, []*inum.QueryMatrix{qm, dead})
	if got := dominatedMask(&key, 1); !got[2] {
		t.Errorf("a dead template's slot kept candidate 2: mask %v", got)
	}
}

// pruneInstances are the enumerable instances the exactness tests run
// on, over SF 0.05: Hom with updates and Het, each with the first 12
// CGen candidates of one table plus clustered variants of the first
// two, 14 in all.
func pruneInstances(t *testing.T) []*Instance {
	t.Helper()
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	heavy := workload.Hom(workload.HomConfig{Queries: 12, UpdateFraction: 0.8, Seed: 66})
	hom := workload.Hom(workload.HomConfig{Queries: 12, UpdateFraction: 0.3, Seed: 64})
	het := workload.Het(workload.HetConfig{Queries: 12, UpdateFraction: 0.3, Seed: 65})
	var out []*Instance
	for _, c := range []struct {
		w     *workload.Workload
		table string
	}{{heavy, "lineitem"}, {hom, "customer"}, {het, "orders"}, {het, "part"}} {
		ad := NewAdvisor(cat, engine.New(cat, engine.SystemA()), Options{})
		var s []*catalog.Index
		for _, ix := range Candidates(cat, c.w, CGenOptions{Covering: true}) {
			if ix.Table == c.table && len(s) < 12 {
				s = append(s, ix)
			}
		}
		for _, ix := range s[:2] {
			cl := *ix
			cl.Clustered = true
			s = append(s, &cl)
		}
		out = append(out, ad.instance(c.w, s))
	}
	return out
}

// pruneCases are the constraint sets of the exactness tests: no
// constraint, and budgets of 5, 10 and 30 % of the candidates' bytes,
// each alone and with each kind of side row and a cost cap. Count rows
// select every other candidate.
func pruneCases(inst *Instance) map[string]Constraints {
	var total float64
	odd := map[*catalog.Index]bool{}
	for i, ix := range inst.S {
		total += float64(ix.Bytes(inst.Cat.Table(ix.Table)))
		odd[ix] = i%2 == 1
	}
	isOdd := func(ix *catalog.Index) bool { return odd[ix] }
	bytes := func(ix *catalog.Index) float64 { return float64(ix.Bytes(inst.Cat.Table(ix.Table))) }
	cases := map[string]Constraints{"none": NoConstraints()}
	for _, f := range []float64{0.05, 0.1, 0.3} {
		for name, items := range map[string][]Item{
			"budget":              nil,
			"LE count":            {Count{Name: "odd", Filter: isOdd, Sense: lp.LE, V: 1}},
			"GE count 1":          {Count{Name: "odd", Filter: isOdd, Sense: lp.GE, V: 1}},
			"GE count 2":          {Count{Name: "odd", Filter: isOdd, Sense: lp.GE, V: 2}},
			"EQ count":            {Count{Name: "odd", Filter: isOdd, Sense: lp.EQ, V: 1}},
			"LE size":             {Count{Name: "odd-bytes", Filter: isOdd, Weight: bytes, Sense: lp.LE, V: f / 3 * total}},
			"clustered per table": {ClusteredPerTable{}},
			"query cost cap":      {QueryCost{Factor: 0.9, IDs: []string{inst.Workload.Queries()[0].Query.ID}}},
		} {
			cases[fmt.Sprintf("%s, budget %g", name, f)] = Constraints{BudgetBytes: f * total, Items: items}
		}
	}
	return cases
}

// TestPruneKeepsOptimum is the exactness claim: on every enumerable
// instance and constraint set, the best feasible selection costs the
// same with BIPGen's dominance mask as with a nil mask, and the mask is
// the one the pairwise statement of the rule gives.
func TestPruneKeepsOptimum(t *testing.T) {
	dropped := map[string]int{}
	for k, inst := range pruneInstances(t) {
		for name, cons := range pruneCases(inst) {
			masked, full, mask := maskedAndFull(t, inst, cons)
			got, gotOK := bruteOptimum(masked)
			want, wantOK := bruteOptimum(full)
			if got != want || gotOK != wantOK {
				t.Errorf("instance %d, %s: optimum %v (feasible %v) with the mask, %v (feasible %v) without", k, name, got, gotOK, want, wantOK)
			}
			if want := newNaiveDominance(full).mask(); !reflect.DeepEqual(mask, want) {
				t.Errorf("instance %d, %s: mask %v, pairwise rule gives %v", k, name, mask, want)
			}
			for _, on := range mask {
				if on {
					dropped[name]++
				}
			}
		}
	}
	for name := range pruneCases(pruneInstances(t)[0]) {
		if dropped[name] == 0 {
			t.Errorf("%s: no instance masks any candidate; the case tests nothing", name)
		}
	}
}

// TestPruneMaskFollowsRevisions: a build over kept compiled state reuses
// its mask only while the mask's inputs are unchanged. Zeroing the
// update weights moves FixedCost, and count rows move the rows, each
// without touching a slab; every step moves the mask, and the kept build
// must mask as a from-nothing build does.
func TestPruneMaskFollowsRevisions(t *testing.T) {
	inst := pruneInstances(t)[0]
	var light workload.Workload
	for _, st := range inst.Workload.Statements {
		if st.Update != nil {
			st = &workload.Statement{Query: st.Query, Update: st.Update}
		}
		light.Statements = append(light.Statements, st)
	}
	cons := pruneCases(inst)
	cs := new(compiled)
	var prev []bool
	for k, step := range []struct {
		w    *workload.Workload
		cons Constraints
	}{
		{inst.Workload, cons["none"]},
		{&light, cons["none"]},
		{&light, cons["LE count, budget 0.1"]},
		{inst.Workload, cons["GE count 1, budget 0.1"]},
	} {
		rev := *inst
		rev.Workload = step.w
		if _, err := cs.model(context.Background(), &rev, step.cons); err != nil {
			t.Fatal(err)
		}
		_, _, want := maskedAndFull(t, &rev, step.cons)
		if !reflect.DeepEqual(cs.mask, want) {
			t.Fatalf("step %d: kept state masks %v, a from-nothing build %v", k, cs.mask, want)
		}
		if k > 0 && reflect.DeepEqual(cs.mask, prev) {
			t.Fatalf("step %d: the revision did not move the mask; the step tests nothing", k)
		}
		prev = cs.mask
	}
}

// TestPruneMaskPermutationInvariant: the mask is a function of the
// candidate set, so a permuted S masks the same candidates by ID.
func TestPruneMaskPermutationInvariant(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	rng := rand.New(rand.NewSource(7))
	for _, w := range []*workload.Workload{
		workload.Hom(workload.HomConfig{Queries: 30, UpdateFraction: 0.2, Seed: 66}),
		workload.Het(workload.HetConfig{Queries: 30, UpdateFraction: 0.2, Seed: 67}),
	} {
		ad := NewAdvisor(cat, engine.New(cat, engine.SystemA()), Options{})
		s := Candidates(cat, w, CGenOptions{Covering: true})
		cons := FractionOfData(cat, 0.5)
		cons.Items = []Item{Count{Name: "wide", Filter: MinKeyCols(2), Sense: lp.LE, V: 4}}
		masks := map[string]bool{}
		for round := range 3 {
			perm := append([]*catalog.Index(nil), s...)
			if round > 0 {
				rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			}
			_, _, mask := maskedAndFull(t, ad.instance(w, perm), cons)
			n := 0
			for i, ix := range perm {
				if round == 0 {
					masks[ix.ID()] = mask[i]
				} else if masks[ix.ID()] != mask[i] {
					t.Fatalf("%s: %s masked %v at one position, %v at another", w.Name, ix.ID(), masks[ix.ID()], mask[i])
				}
				if mask[i] {
					n++
				}
			}
			if n == 0 {
				t.Fatalf("%s: nothing masked; the test is vacuous", w.Name)
			}
		}
	}
}

// TestDominatedMaskWorkerCounts: the per-candidate tests fan out over
// the worker pool, each writing only its own mask entry, so every
// worker count, more workers than cores included, gives the serial
// mask.
func TestDominatedMaskWorkerCounts(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	for _, w := range []*workload.Workload{
		workload.Hom(workload.HomConfig{Queries: 30, UpdateFraction: 0.2, Seed: 66}),
		workload.Het(workload.HetConfig{Queries: 30, UpdateFraction: 0.2, Seed: 67}),
	} {
		ad := NewAdvisor(cat, engine.New(cat, engine.SystemA()), Options{})
		cons := FractionOfData(cat, 0.5)
		cons.Items = []Item{Count{Name: "wide", Filter: MinKeyCols(2), Sense: lp.LE, V: 4}}
		cs := new(compiled)
		if _, err := cs.model(context.Background(), ad.instance(w, Candidates(cat, w, CGenOptions{Covering: true})), cons); err != nil {
			t.Fatal(err)
		}
		want := dominatedMask(&cs.maskKey, 1)
		if !slices.Contains(want, true) {
			t.Fatalf("%s: nothing masked; the test is vacuous", w.Name)
		}
		for _, workers := range []int{0, 2, 2*runtime.GOMAXPROCS(0) + 3} {
			if got := dominatedMask(&cs.maskKey, workers); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %d workers mask %v, one worker %v", w.Name, workers, got, want)
			}
		}
	}
}
