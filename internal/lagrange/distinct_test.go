package lagrange

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestDistinctModeMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		m := randomModel(r, 6+r.Intn(4), 3+r.Intn(4), 0.5)
		res := Solve(m, Options{GapTol: 1e-9, RootIters: 400, MaxNodes: 400})
		want, _ := bruteForce(m)
		if res.Objective > want*1.000001+1e-9 {
			t.Fatalf("trial %d: got %v, optimal %v (gap %v)", trial, res.Objective, want, res.Gap)
		}
		if res.Lower > want+math.Abs(want)*1e-6+1e-6 {
			t.Fatalf("trial %d: lower bound %v exceeds optimum %v", trial, res.Lower, want)
		}
	}
}

func TestDistinctValidation(t *testing.T) {
	if _, err := NewLayout([]Choice{{
		Fixed: 1,
		Slots: []Slot{
			{{Index: 0, Cost: 1}, {Index: NoIndex, Cost: 5}},
			{{Index: 0, Cost: 2}, {Index: NoIndex, Cost: 5}}, // index 0 again
		},
	}}); err == nil {
		t.Fatal("repeated index across slots must be rejected")
	}
	// Same index twice within ONE slot is allowed (alternatives), and so
	// is one index in two choices.
	if _, err := NewLayout([]Choice{
		{Fixed: 1, Slots: []Slot{{{Index: 0, Cost: 1}, {Index: 0, Cost: 2}, {Index: NoIndex, Cost: 5}}}},
		{Fixed: 2, Slots: []Slot{{{Index: 0, Cost: 1}, {Index: NoIndex, Cost: 5}}}},
	}); err != nil {
		t.Fatalf("within-slot duplicates should be accepted: %v", err)
	}
}

func TestDropRedundantCleansTwins(t *testing.T) {
	// Two identical indexes: only one should survive in the incumbent.
	m := NewModel(2)
	m.FixedCost = []float64{0, 0}
	m.Size = []float64{5, 5}
	m.Blocks = []Block{{Weight: 1, Choices: []Choice{{
		Fixed: 1,
		Slots: []Slot{{{Index: 0, Cost: 10}, {Index: 1, Cost: 10}, {Index: NoIndex, Cost: 100}}},
	}}}}
	res := Solve(laidOut(m), Options{GapTol: 1e-9, RootIters: 200, MaxNodes: 100})
	count := 0
	for _, on := range res.Selected {
		if on {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("redundant twin not dropped: %d selected", count)
	}
}

func TestWarmStartAcrossAppendedCandidates(t *testing.T) {
	// Interactive tuning appends candidates; warm multipliers keyed by
	// index must survive and not corrupt bounds.
	r := rand.New(rand.NewSource(79))
	m := randomModel(r, 8, 10, 0.5)
	first := Solve(m, Options{GapTol: 0.01, RootIters: 300, MaxNodes: 50})

	// Extend with two fresh indexes appended to an existing slot.
	m2 := *m
	m2.NumIndexes += 2
	m2.FixedCost = append(append([]float64(nil), m.FixedCost...), 1, 1)
	m2.Size = append(append([]float64(nil), m.Size...), 3, 3)
	m2.Blocks = append([]Block(nil), m.Blocks...)
	b0 := m2.Blocks[0]
	ch := b0.Choices[0]
	newSlots := append([]Slot(nil), ch.Slots...)
	newSlots[0] = append(append(Slot(nil), newSlots[0]...), Option{Index: int32(m.NumIndexes), Cost: 1})
	ch.Slots = newSlots
	b0.Choices = append([]Choice(nil), b0.Choices...)
	b0.Choices[0] = ch
	m2.Blocks[0] = b0
	laidOut(&m2)

	start := append(append([]bool(nil), first.Selected...), false, false)
	second := Solve(&m2, Options{GapTol: 0.01, RootIters: 300, MaxNodes: 50, Warm: first.Lambda, Start: start})
	want, _ := bruteForce(&m2)
	if second.Objective > want*1.05+1e-9 {
		t.Fatalf("warm re-solve too far from optimum: %v vs %v", second.Objective, want)
	}
	if second.Lower > want+math.Abs(want)*1e-6+1e-6 {
		t.Fatalf("warm re-solve bound invalid: %v > %v", second.Lower, want)
	}
}

// TestWarmDualProjected: a warm start's multipliers are projected onto
// λ ≥ 0 before use. Unprojected, the donor's −3 on b2 cancels part of
// b1's 11 in attract[a], the z subproblem sees no gain from index a,
// and the "bound" of 10 exceeds the optimum 8 (select a: 8 + 0 + 0).
func TestWarmDualProjected(t *testing.T) {
	m := NewModel(1)
	m.FixedCost[0], m.Size[0] = 8, 1
	m.Blocks = []Block{
		{ID: "b1", Weight: 1, Choices: []Choice{{Slots: []Slot{{{Index: 0, Cost: 0}, {Index: NoIndex, Cost: 10}}}}}},
		{ID: "b2", Weight: 1, Choices: []Choice{{Slots: []Slot{{{Index: NoIndex, Cost: 0}, {Index: 0, Cost: 5}}}}}},
	}
	laidOut(m)
	for _, bad := range []float64{-3, math.NaN(), math.Inf(-1)} {
		warm := Dual{
			{ID: "b1", Sites: []DualSite{{Index: 0, Value: 11}}},
			{ID: "b2", Sites: []DualSite{{Index: 0, Value: bad}}},
		}
		res := Solve(m, Options{RootIters: 1, MaxNodes: -1, Warm: warm})
		if res.Lower > 8 || res.Objective != 8 {
			t.Fatalf("donor λ %v on b2: objective %v, lower %v; the optimum is 8", bad, res.Objective, res.Lower)
		}
	}
}

func TestWarmStartAcrossWorkloadDelta(t *testing.T) {
	// Streaming re-optimization: statements are appended, dropped and
	// re-weighted between solves. With labeled blocks the multipliers
	// follow surviving statements by ID; the warm re-solve must stay
	// correct (valid bound, near-optimal incumbent).
	r := rand.New(rand.NewSource(83))
	m := randomModel(r, 8, 10, 0.5)
	first := Solve(m, Options{GapTol: 0.01, RootIters: 300, MaxNodes: 50})
	if first.Infeasible {
		t.Fatal("first solve infeasible")
	}

	// Delta: drop block 3, re-weight block 5, append a fresh block.
	m2 := *m
	m2.Blocks = append([]Block(nil), m.Blocks[:3]...)
	m2.Blocks = append(m2.Blocks, m.Blocks[4:]...)
	m2.Blocks[4].Weight *= 3 // was block 5
	extra := randomModel(r, 8, 1, 0)
	extra.Blocks[0].ID = "q-new"
	m2.Blocks = append(m2.Blocks, extra.Blocks[0])

	second := Solve(&m2, Options{GapTol: 0.01, RootIters: 300, MaxNodes: 50,
		Warm: first.Lambda, Start: first.Selected})
	want, _ := bruteForce(&m2)
	if second.Infeasible {
		t.Fatal("warm re-solve infeasible")
	}
	if second.Objective > want*1.05+1e-9 {
		t.Fatalf("warm re-solve too far from optimum: %v vs %v", second.Objective, want)
	}
	if second.Lower > want+math.Abs(want)*1e-6+1e-6 {
		t.Fatalf("warm re-solve bound invalid: %v > %v", second.Lower, want)
	}
	// A block without a label never finds a donor — not even the
	// unlabelled block the previous solve had at its position — and is
	// repriced wholesale, like the appended statement.
	m3 := m2
	m3.Blocks = append([]Block(nil), m2.Blocks...)
	m3.Blocks[0].ID = ""
	donor := append(Dual(nil), first.Lambda...)
	donor[0] = DualBlock{}
	for _, site := range first.Lambda[0].Sites {
		donor[0].Sites = append(donor[0].Sites, DualSite{Index: site.Index, Value: 1e6})
	}
	with, without := newTestSolver(&m3), newTestSolver(&m3)
	with.applyWarm(donor)
	without.applyWarm(donor[1:])
	if !reflect.DeepEqual(with.lam, without.lam) {
		t.Fatalf("unlabelled block adopted multipliers: %v, want the wholesale repricing %v", with.lam[0], without.lam[0])
	}
	for _, v := range with.lam[0] {
		if v == 1e6 {
			t.Fatalf("unlabelled block matched its positional donor: %v", with.lam[0])
		}
	}
	// Iteration savings are asserted at the session level (the warm
	// re-solve there also relaxes the gap to the one already accepted);
	// on tiny random instances the raw subgradient trajectory after a
	// delta is too chaotic to compare iteration counts meaningfully.
}
