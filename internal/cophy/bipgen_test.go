package cophy

import (
	"context"
	"math"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/bip"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/inum"
	"repro/internal/lagrange"
	"repro/internal/lp"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// buildSmallModel compiles a small instance for white-box checks.
func buildSmallModel(t *testing.T, queries int, seed int64) (*Advisor, *Instance, *lagrange.Model) {
	t.Helper()
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	eng := engine.New(cat, engine.SystemA())
	ad := NewAdvisor(cat, eng, Options{})
	w := workload.Hom(workload.HomConfig{Queries: queries, UpdateFraction: 0.2, Seed: seed})
	s := Candidates(cat, w, CGenOptions{Covering: true})
	inst := ad.instance(w, s)
	ad.Inum.Prepare(w)
	m, err := BuildModel(inst)
	if err != nil {
		t.Fatal(err)
	}
	return ad, inst, m
}

func TestBuildModelShape(t *testing.T) {
	_, inst, m := buildSmallModel(t, 12, 100)
	if m.NumIndexes != len(inst.S) {
		t.Fatalf("index vars = %d, candidates = %d", m.NumIndexes, len(inst.S))
	}
	queries := inst.Workload.Queries()
	if len(m.Blocks) != len(queries) {
		t.Fatalf("blocks = %d, queries(+shells) = %d", len(m.Blocks), len(queries))
	}
	// Sizes positive; every block has a choice evaluable with I∅ only.
	for a := 0; a < m.NumIndexes; a++ {
		if m.Size[a] <= 0 {
			t.Fatalf("candidate %d has size %v", a, m.Size[a])
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Update statements must contribute fixed costs on affected
	// candidates and a positive constant.
	if m.Const <= 0 {
		t.Fatal("base-tuple update costs missing from Const")
	}
	anyFixed := false
	for _, f := range m.FixedCost {
		if f < 0 {
			t.Fatal("negative fixed cost")
		}
		if f > 0 {
			anyFixed = true
		}
	}
	if !anyFixed {
		t.Fatal("no candidate carries update-maintenance cost despite updates in W")
	}
}

// follows reports whether next starts where prev ends in memory.
func follows[T any](prev, next []T) bool {
	var zero T
	end := uintptr(unsafe.Pointer(unsafe.SliceData(prev))) + uintptr(len(prev))*unsafe.Sizeof(zero)
	return uintptr(unsafe.Pointer(unsafe.SliceData(next))) == end
}

// TestBuildChoicesLayout pins BIPGen's block layout: a statement's
// options sit in one array and its slots in another, in walk order, and
// every window into them has cap == len, so an append through one slot
// or choice of the shared, cached choices can never write into its
// neighbour. A slot is either laid out right after the previously laid
// slot of its block, or is the very window of an earlier slot of the
// block (a repeated template slot).
func TestBuildChoicesLayout(t *testing.T) {
	_, _, hom := buildSmallModel(t, 12, 100)
	het, err := BuildModel(parallelInstance(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*lagrange.Model{"hom": hom, "het": het} {
		slots, aliases := 0, 0
		for bi := range m.Blocks {
			var prevSlots []lagrange.Slot
			var prevOpts lagrange.Slot
			laid := map[*lagrange.Option]int{} // first option → length
			for ci, ch := range m.Blocks[bi].Choices {
				if cap(ch.Slots) != len(ch.Slots) {
					t.Fatalf("%s block %d choice %d: Slots has cap %d > len %d", name, bi, ci, cap(ch.Slots), len(ch.Slots))
				}
				if len(ch.Slots) == 0 {
					continue
				}
				if prevSlots != nil && !follows(prevSlots, ch.Slots) {
					t.Fatalf("%s block %d choice %d: slot windows are not adjacent", name, bi, ci)
				}
				prevSlots = ch.Slots
				for si, slot := range ch.Slots {
					slots++
					if cap(slot) != len(slot) {
						t.Fatalf("%s block %d choice %d slot %d: cap %d > len %d", name, bi, ci, si, cap(slot), len(slot))
					}
					if n, ok := laid[&slot[0]]; ok {
						if n != len(slot) {
							t.Fatalf("%s block %d choice %d slot %d: overlaps an earlier window", name, bi, ci, si)
						}
						aliases++
						continue
					}
					if prevOpts != nil && !follows(prevOpts, slot) {
						t.Fatalf("%s block %d choice %d slot %d: options are not adjacent to the previously laid slot's", name, bi, ci, si)
					}
					prevOpts = slot
					laid[&slot[0]] = len(slot)
				}
			}
		}
		if slots < 2*len(m.Blocks) || aliases == 0 {
			t.Fatalf("%s: %d slots (%d repeats) over %d blocks, the layout is barely exercised", name, slots, aliases, len(m.Blocks))
		}
	}
}

// TestBuildChoicesSkipsDeadTemplates pins how repeated slots meet
// infeasible templates, on a hand-made slab. Distinct slot A is filled by
// candidate 0, B by candidate 2, and X only by candidate 1, which the
// mask drops: X is dead. Templates 0 (A, X) and 3 (A, X) use X and emit
// nothing. Template 1 (B, A) lays out B first and then A, so A's window
// is laid out on its first use in an emitted template, after B's.
// Templates 2 (A) and 4 (A) share that window.
func TestBuildChoicesSkipsDeadTemplates(t *testing.T) {
	inf := math.Inf(1)
	qm := &inum.QueryMatrix{
		Internal: []float64{1, 2, 3, 4, 5},
		TmplOff:  []int32{0, 2, 4, 5, 7, 8},
		Refs:     []int32{0, 1, 2, 0, 0, 0, 1, 0},
		SlotFree: []float64{10, inf, 20},
		SlotOff:  []int32{0, 1, 2, 3},
		Compat:   []int32{0, 1, 2},
		Gamma:    []float64{5, 5, 7},
	}
	l, err := buildChoices(qm, []bool{false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	var b lagrange.Block
	b.SetLayout(l)
	var fixed []float64
	for _, ch := range b.Choices {
		fixed = append(fixed, ch.Fixed)
	}
	if !slices.Equal(fixed, []float64{2, 3, 5}) {
		t.Fatalf("choices of templates with β %v, want 2, 3 and 5", fixed)
	}
	wantB := lagrange.Slot{{Index: 2, Group: 0, Cost: 7}, {Index: lagrange.NoIndex, Group: -1, Cost: 20}}
	wantA := lagrange.Slot{{Index: 0, Group: 1, Cost: 5}, {Index: lagrange.NoIndex, Group: -1, Cost: 10}}
	if got := b.Choices[0].Slots[0]; !slices.Equal(got, wantB) {
		t.Fatalf("slot B laid out as %v, want %v", got, wantB)
	}
	a := b.Choices[0].Slots[1]
	if !slices.Equal(a, wantA) {
		t.Fatalf("slot A laid out as %v, want %v", a, wantA)
	}
	for _, ch := range b.Choices[1:] {
		if s := ch.Slots[0]; &s[0] != &a[0] || len(s) != len(a) {
			t.Fatalf("template with β %v does not share slot A's window", ch.Fixed)
		}
	}
}

func TestModelEvalMatchesINUM(t *testing.T) {
	// The model's Evaluate must agree with the INUM workload cost for
	// the same selection (both measure Σ f_q · cost(q, X) + updates).
	ad, inst, m := buildSmallModel(t, 10, 101)
	sel := make([]bool, m.NumIndexes)
	for i := 0; i < len(sel); i += 3 {
		sel[i] = true
	}
	inumCost := func(sel []bool) float64 {
		t.Helper()
		cfg := inst.Baseline.Union(nil)
		for i, on := range sel {
			if on {
				cfg.Add(inst.S[i])
			}
		}
		c, err := ad.Inum.WorkloadCost(inst.Workload, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	got, ok := m.Evaluate(sel)
	if !ok {
		t.Fatal("Evaluate failed")
	}
	// The model omits options that cannot beat the free access and those
	// of dominated candidates, so it may sit above the unrestricted INUM
	// cost; never below.
	want := inumCost(sel)
	if got < want*(1-1e-9) {
		t.Fatalf("model eval %v below INUM cost %v", got, want)
	}

	// With each dropped member replaced by an undominated dominator, the
	// model prices the selection as INUM does, and the swap never makes
	// INUM's cost rise.
	_, full, mask := maskedAndFull(t, inst, NoConstraints())
	dom := newNaiveDominance(full)
	swapped := make([]bool, len(sel))
	swaps := 0
	for i, on := range sel {
		switch {
		case !on:
		case mask[i]:
			j := dom.dominator(mask, i)
			if j < 0 {
				t.Fatalf("masked candidate %d has no unmasked dominator", i)
			}
			swapped[j] = true
			swaps++
		default:
			swapped[i] = true
		}
	}
	if swaps == 0 {
		t.Fatal("the selection holds no dominated candidate: the swap goes untested")
	}
	if after := inumCost(swapped); after > want*(1+1e-9) {
		t.Fatalf("swapping dominated members for their dominators raised the INUM cost %v → %v", want, after)
	}
	got, ok = m.Evaluate(swapped)
	if !ok {
		t.Fatal("Evaluate failed")
	}
	if want := inumCost(swapped); got < want*(1-1e-9) || got > want*1.02+1e-6 {
		t.Fatalf("model eval %v too far from INUM cost %v", got, want)
	}
}

// buildExplicitBIP constructs the BIP of Theorem 1 literally — one
// binary y_{qk} per template, one x_{qkia} per slot option, one z_a
// per candidate — over the generic lp/bip substrate. It exists to
// validate the theorem (the structured solver and this program must
// agree): the reference TestTheorem1Equivalence solves against. For a
// model with B blocks it allocates Σ options + Σ templates + |S|
// variables.
func buildExplicitBIP(m *lagrange.Model) (bip.Model, []int) {
	// Count variables.
	nz := m.NumIndexes
	ny, nx := 0, 0
	for bi := range m.Blocks {
		ny += len(m.Blocks[bi].Choices)
		for ci := range m.Blocks[bi].Choices {
			for _, s := range m.Blocks[bi].Choices[ci].Slots {
				nx += len(s)
			}
		}
	}
	p := lp.NewProblem(nz + ny + nx)
	bins := make([]int, 0, nz+ny+nx)

	// z variables first.
	for a := 0; a < nz; a++ {
		p.SetObj(a, m.FixedCost[a])
		p.SetBounds(a, 0, 1)
		bins = append(bins, a)
	}
	yBase := nz
	xBase := nz + ny

	yi, xi := 0, 0
	for bi := range m.Blocks {
		blk := &m.Blocks[bi]
		var yRow []lp.Coef
		for ci := range blk.Choices {
			ch := &blk.Choices[ci]
			yVar := yBase + yi
			yi++
			p.SetObj(yVar, blk.Weight*ch.Fixed)
			p.SetBounds(yVar, 0, 1)
			bins = append(bins, yVar)
			yRow = append(yRow, lp.Coef{Col: yVar, Val: 1})
			for _, s := range ch.Slots {
				// Σ_a x = y  (assignment row per slot).
				row := []lp.Coef{{Col: yVar, Val: -1}}
				for _, o := range s {
					xVar := xBase + xi
					xi++
					p.SetObj(xVar, blk.Weight*o.Cost)
					p.SetBounds(xVar, 0, 1)
					bins = append(bins, xVar)
					row = append(row, lp.Coef{Col: xVar, Val: 1})
					if o.Index != lagrange.NoIndex {
						// z_a ≥ x.
						p.AddRow([]lp.Coef{{Col: int(o.Index), Val: 1}, {Col: xVar, Val: -1}}, lp.GE, 0)
					}
				}
				p.AddRow(row, lp.EQ, 0)
			}
		}
		// Σ_k y = 1.
		p.AddRow(yRow, lp.EQ, 1)
	}

	// Storage budget and side constraints.
	if m.Budget >= 0 {
		var row []lp.Coef
		for a := 0; a < nz; a++ {
			if m.Size[a] != 0 {
				row = append(row, lp.Coef{Col: a, Val: m.Size[a]})
			}
		}
		p.AddRow(row, lp.LE, m.Budget)
	}
	for _, c := range m.Extra {
		var row []lp.Coef
		for _, t := range c.Terms {
			row = append(row, lp.Coef{Col: int(t.Index), Val: t.Coef})
		}
		p.AddRow(row, c.Sense, c.RHS)
	}
	zVars := make([]int, nz)
	for a := range zVars {
		zVars[a] = a
	}
	return bip.Model{P: p, Binaries: bins}, zVars
}

func TestExplicitBIPVariableCount(t *testing.T) {
	_, _, m := buildSmallModel(t, 6, 102)
	em, zVars := buildExplicitBIP(m)
	if len(zVars) != m.NumIndexes {
		t.Fatalf("z vars = %d", len(zVars))
	}
	// Theorem 1: variable count is z + y + x.
	ny, nx := 0, 0
	for bi := range m.Blocks {
		ny += len(m.Blocks[bi].Choices)
		for ci := range m.Blocks[bi].Choices {
			for _, s := range m.Blocks[bi].Choices[ci].Slots {
				nx += len(s)
			}
		}
	}
	if em.P.Cols() != m.NumIndexes+ny+nx {
		t.Fatalf("cols = %d, want %d", em.P.Cols(), m.NumIndexes+ny+nx)
	}
	if len(em.Binaries) != em.P.Cols() {
		t.Fatal("all variables must be binary")
	}
}

func TestFreeOptionNeverWorseThanBaselineCost(t *testing.T) {
	// With nothing selected, every block must price at its baseline
	// INUM cost (the free options encode I∅ and the clustered PKs).
	ad, inst, m := buildSmallModel(t, 10, 103)
	empty := make([]bool, m.NumIndexes)
	for bi, st := range inst.Workload.Queries() {
		v, ok := mBlockPrimal(m, bi, empty)
		if !ok {
			t.Fatalf("block %d not evaluable empty", bi)
		}
		base, err := ad.Inum.Cost(st.Query, inst.Baseline)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-base) > 1e-6*base {
			t.Fatalf("block %d empty value %v != baseline INUM %v", bi, v, base)
		}
	}
}

// mBlockPrimal evaluates one block of the model under a selection via
// the public Evaluate on a single-block copy.
func mBlockPrimal(m *lagrange.Model, bi int, sel []bool) (float64, bool) {
	single := lagrange.NewModel(m.NumIndexes)
	copy(single.Size, m.Size)
	single.Blocks = []lagrange.Block{m.Blocks[bi]}
	v, ok := single.Evaluate(sel)
	return v, ok
}

func TestConfigHelper(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	eng := engine.New(cat, engine.SystemA())
	ad := NewAdvisor(cat, eng, Options{})
	res := &Result{Indexes: []*catalog.Index{{Table: "orders", Key: []string{"o_orderdate"}}}}
	cfg := ad.Config(res)
	// Baseline clustered PKs (8 tables) + the one recommendation.
	if cfg.Size() != 9 {
		t.Fatalf("config size = %d, want 9", cfg.Size())
	}
}

func TestSoftSweepNormalization(t *testing.T) {
	// With the cost/byte normalization, intermediate λ values must
	// produce intermediate storage footprints, not all-or-nothing.
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	eng := engine.New(cat, engine.SystemA())
	ad := NewAdvisor(cat, eng, Options{GapTol: 0.03, RootIters: 200, MaxNodes: 32})
	w := workload.Hom(workload.HomConfig{Queries: 30, Seed: 104})
	s := Candidates(cat, w, CGenOptions{Covering: true})
	points, _, err := ad.SoftStorageSweep(w, s, NoConstraints(), 0, []float64{0, 0.5, 0.9, 1})
	if err != nil {
		t.Fatal(err)
	}
	if points[0].SizeBytes != 0 {
		t.Fatal("λ=0 must select nothing")
	}
	last := points[len(points)-1]
	if last.SizeBytes <= 0 {
		t.Fatal("λ=1 must select indexes")
	}
	mid := points[2] // λ=0.9
	if !(mid.SizeBytes > 0) {
		t.Fatalf("λ=0.9 selected nothing — normalization broken (sizes %v)", []float64{points[0].SizeBytes, points[1].SizeBytes, mid.SizeBytes, last.SizeBytes})
	}
	if mid.Cost < last.Cost*(1-1e-9) {
		t.Fatalf("λ=0.9 cost (%v) cannot beat λ=1 cost (%v)", mid.Cost, last.Cost)
	}
}

// TestSameShapeBlocksShareLayout: BIPGen lays out each shape class once.
// The blocks of one class share one *lagrange.Layout and no two classes
// share one; a rebuild over kept compiled state, as a warm re-solve
// runs, keeps every layout; a mask flip gets new layouts for the slabs
// listing a flipped candidate and keeps the rest, and a candidate drop
// gets new ones for the slabs that listed it.
func TestSameShapeBlocksShareLayout(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	w := workload.Hom(workload.HomConfig{Queries: 60, UpdateFraction: 0.8, Seed: 66})
	ad := NewAdvisor(cat, engine.New(cat, engine.SystemA()), Options{})
	var s []*catalog.Index
	for _, ix := range Candidates(cat, w, CGenOptions{Covering: true}) {
		if ix.Table == "lineitem" && len(s) < 12 {
			s = append(s, ix)
		}
	}
	inst := ad.instance(w, s)
	cons := NoConstraints()
	cs := new(compiled)
	shared := false
	build := func(inst *Instance) map[*inum.QueryMatrix]*lagrange.Layout {
		t.Helper()
		m, err := cs.model(context.Background(), inst, cons)
		if err != nil {
			t.Fatal(err)
		}
		bySlab := map[*inum.QueryMatrix]*lagrange.Layout{}
		slabOf := map[*lagrange.Layout]*inum.QueryMatrix{}
		for bi, st := range inst.Workload.Queries() {
			qm, l := cs.mat.Query(st.Query), m.Blocks[bi].Layout()
			if l == nil {
				t.Fatalf("block %d has no layout", bi)
			}
			if prev, ok := bySlab[qm]; ok {
				if prev != l {
					t.Fatalf("block %d: its class already has another layout", bi)
				}
				shared = true
			} else if _, ok := slabOf[l]; ok {
				t.Fatalf("block %d: two classes share a layout", bi)
			}
			bySlab[qm], slabOf[l] = l, qm
		}
		return bySlab
	}

	first := build(inst)
	if !shared {
		t.Fatal("no class has two statements; the test is vacuous")
	}
	mask := cs.mask
	for qm, l := range build(inst) {
		if first[qm] != l {
			t.Fatal("a rebuild over kept state laid a kept slab out again")
		}
	}

	// Zero update weights move FixedCost, and with it the mask, without
	// touching a slab (as in TestPruneMaskFollowsRevisions).
	var light workload.Workload
	for _, st := range inst.Workload.Statements {
		if st.Update != nil {
			st = &workload.Statement{Query: st.Query, Update: st.Update}
		}
		light.Statements = append(light.Statements, st)
	}
	rev := *inst
	rev.Workload = &light
	flipped := 0
	lightLayouts := build(&rev)
	for qm, l := range lightLayouts {
		switch old, kept := first[qm]; {
		case !kept:
			t.Fatal("zeroing update weights replaced a slab")
		case listsAny(qm, flips(mask, cs.mask)):
			if l == old {
				t.Fatal("a slab listing a flipped candidate kept its layout")
			}
			flipped++
		case l != old:
			t.Fatal("a slab listing no flipped candidate was laid out again")
		}
	}
	if flipped == 0 {
		t.Fatal("no slab lists a flipped candidate; the step tests nothing")
	}

	// Drop the last candidate some slab lists.
	drop := -1
	for qm := range lightLayouts {
		for _, c := range qm.Compat {
			drop = max(drop, int(c))
		}
	}
	if drop < 0 {
		t.Fatal("no slab lists a candidate; the step tests nothing")
	}
	listed := map[*workload.Query]bool{}
	for _, st := range light.Queries() {
		listed[st.Query] = slices.Contains(cs.mat.Query(st.Query).Compat, int32(drop))
	}
	rev.S = slices.Delete(slices.Clone(inst.S), drop, drop+1)
	old := map[*lagrange.Layout]bool{}
	for _, l := range lightLayouts {
		old[l] = true
	}
	rebuilt := build(&rev)
	for _, st := range light.Queries() {
		if listed[st.Query] && old[rebuilt[cs.mat.Query(st.Query)]] {
			t.Fatalf("%s listed the dropped candidate and kept its layout", st.Query.ID)
		}
	}
}
