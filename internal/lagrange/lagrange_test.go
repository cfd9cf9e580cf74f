package lagrange

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/lp"
)

// bruteForce enumerates every selection and returns the optimal
// feasible objective and selection.
func bruteForce(m *Model) (float64, []bool) {
	n := m.NumIndexes
	best := math.Inf(1)
	var bestSel []bool
	sel := make([]bool, n)
	for mask := 0; mask < 1<<n; mask++ {
		for a := 0; a < n; a++ {
			sel[a] = mask&(1<<a) != 0
		}
		if ok, _ := m.SelectionFeasible(sel); !ok {
			continue
		}
		obj, ok := m.Evaluate(sel)
		if ok && obj < best {
			best = obj
			bestSel = append([]bool(nil), sel...)
		}
	}
	return best, bestSel
}

// randomModel builds a random model with n ≥ 2 indexes and b labelled
// blocks. Within each choice the slots draw from disjoint index pools,
// like template slots over distinct tables, and every block gets a
// fallback choice.
func randomModel(r *rand.Rand, n, b int, budgetFrac float64) *Model {
	m := NewModel(n)
	for a := 0; a < n; a++ {
		m.FixedCost[a] = math.Floor(r.Float64() * 10)
		m.Size[a] = 1 + math.Floor(r.Float64()*9)
	}
	if budgetFrac > 0 {
		var total float64
		for _, sz := range m.Size {
			total += sz
		}
		m.Budget = total * budgetFrac
	}
	// Split indexes into two "tables".
	half := n / 2
	pools := [][]int32{{}, {}}
	for a := 0; a < n; a++ {
		if a < half {
			pools[0] = append(pools[0], int32(a))
		} else {
			pools[1] = append(pools[1], int32(a))
		}
	}
	for bi := 0; bi < b; bi++ {
		blk := Block{ID: fmt.Sprintf("q%02d", bi), Weight: 1 + math.Floor(r.Float64()*3)}
		nChoices := 1 + r.Intn(3)
		for c := 0; c < nChoices; c++ {
			ch := Choice{Fixed: 10 + math.Floor(r.Float64()*50)}
			nSlots := 1 + r.Intn(2)
			for sl := 0; sl < nSlots; sl++ {
				pool := pools[sl%2]
				slot := Slot{{Index: NoIndex, Cost: 50 + math.Floor(r.Float64()*100)}}
				for o := 0; o < 1+r.Intn(3); o++ {
					slot = append(slot, Option{
						Index: pool[r.Intn(len(pool))],
						Cost:  math.Floor(r.Float64() * 60),
					})
				}
				ch.Slots = append(ch.Slots, slot)
			}
			blk.Choices = append(blk.Choices, ch)
		}
		m.Blocks = append(m.Blocks, blk)
	}
	return laidOut(m)
}

// laidOut gives every block of m the layout of its own choices, as a
// model builder does, and returns m.
func laidOut(m *Model) *Model {
	for bi := range m.Blocks {
		l, err := NewLayout(m.Blocks[bi].Choices)
		if err != nil {
			panic(err)
		}
		m.Blocks[bi].SetLayout(l)
	}
	return m
}

func TestSolveMatchesBruteForceUnconstrained(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		m := randomModel(r, 4+r.Intn(4), 2+r.Intn(4), 0)
		res := Solve(m, Options{GapTol: 1e-9, RootIters: 400, MaxNodes: 400})
		want, _ := bruteForce(m)
		if res.Infeasible {
			t.Fatalf("trial %d: unexpectedly infeasible", trial)
		}
		if res.Objective > want*1.000001+1e-9 {
			t.Fatalf("trial %d: got %v, optimal %v (gap=%v)", trial, res.Objective, want, res.Gap)
		}
		if res.Lower > want+1e-6 {
			t.Fatalf("trial %d: lower bound %v exceeds optimum %v", trial, res.Lower, want)
		}
	}
}

func TestSolveMatchesBruteForceWithBudget(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 25; trial++ {
		m := randomModel(r, 4+r.Intn(4), 2+r.Intn(3), 0.4)
		res := Solve(m, Options{GapTol: 1e-9, RootIters: 400, MaxNodes: 400})
		want, _ := bruteForce(m)
		if res.Objective > want*1.000001+1e-9 {
			t.Fatalf("trial %d: got %v, optimal %v (gap=%v)", trial, res.Objective, want, res.Gap)
		}
		if used := selectedSize(m, res.Selected); used > m.Budget*(1+1e-9) {
			t.Fatalf("trial %d: budget violated: %v > %v", trial, used, m.Budget)
		}
	}
}

func selectedSize(m *Model, sel []bool) float64 {
	var sum float64
	for a, on := range sel {
		if on {
			sum += m.Size[a]
		}
	}
	return sum
}

func TestSolveWithSideConstraints(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		m := randomModel(r, 5, 3, 0.6)
		// At most 2 of the first 3 indexes.
		m.Extra = append(m.Extra, Constraint{
			Terms: []Term{{0, 1}, {1, 1}, {2, 1}},
			Sense: lp.LE, RHS: 2, Name: "at-most-2",
		})
		res := Solve(m, Options{GapTol: 1e-9, RootIters: 400, MaxNodes: 400})
		want, _ := bruteForce(m)
		if res.Objective > want*1.000001+1e-9 {
			t.Fatalf("trial %d: got %v, optimal %v", trial, res.Objective, want)
		}
		cnt := 0
		for a := 0; a < 3; a++ {
			if res.Selected[a] {
				cnt++
			}
		}
		if cnt > 2 {
			t.Fatalf("trial %d: side constraint violated", trial)
		}
	}
}

func TestInfeasibleModel(t *testing.T) {
	m := NewModel(2)
	m.Size = []float64{5, 5}
	m.FixedCost = []float64{0, 0}
	m.Blocks = []Block{{Weight: 1, Choices: []Choice{{Fixed: 1}}}}
	// Require both indexes but allow storage for neither.
	m.Budget = 3
	m.Extra = []Constraint{{Terms: []Term{{0, 1}, {1, 1}}, Sense: lp.GE, RHS: 2, Name: "need-both"}}
	res := Solve(laidOut(m), Options{})
	if !res.Infeasible {
		t.Fatalf("expected infeasible, got objective %v", res.Objective)
	}
}

func TestCheckFeasible(t *testing.T) {
	m := NewModel(2)
	m.Size = []float64{5, 5}
	m.FixedCost = []float64{0, 0}
	m.Blocks = []Block{{Weight: 1, Choices: []Choice{{Fixed: 1}}}}
	m.Budget = 20
	ok, err := m.CheckFeasible()
	if err != nil || !ok {
		t.Fatalf("feasible model reported infeasible: %v %v", ok, err)
	}
	m.Extra = []Constraint{{Terms: []Term{{0, 1}}, Sense: lp.GE, RHS: 2, Name: "impossible"}}
	ok, _ = m.CheckFeasible()
	if ok {
		t.Fatal("z_0 ≥ 2 with z ≤ 1 must be infeasible")
	}
}

// TestCheckFeasibleBinaryFallback reaches the screen's exact fallback:
// in both models the all-zero selection breaks the side constraint and
// the LP relaxation is feasible, so only the binary search decides.
func TestCheckFeasibleBinaryFallback(t *testing.T) {
	for _, tc := range []struct {
		name  string
		terms []Term
		sense lp.Sense
		want  bool
	}{
		{"z0+z1>=1", []Term{{0, 1}, {1, 1}}, lp.GE, true},
		{"2z0=1", []Term{{0, 2}}, lp.EQ, false}, // LP point z0 = 0.5, no binary one
	} {
		m := NewModel(2)
		m.Blocks = []Block{{Weight: 1, Choices: []Choice{{Fixed: 1}}}}
		m.Extra = []Constraint{{Terms: tc.terms, Sense: tc.sense, RHS: 1, Name: tc.name}}
		p := m.zPolytopeLP(make([]float64, 2), nil, nil)
		if p.Feasible(make([]float64, 2), 1e-9) || lp.Solve(p).Status != lp.Optimal {
			t.Fatalf("%s: want the all-zero point infeasible and the LP relaxation feasible", tc.name)
		}
		if ok, err := m.CheckFeasible(); err != nil || ok != tc.want {
			t.Errorf("%s: CheckFeasible = %v, %v; want %v", tc.name, ok, err, tc.want)
		}
	}
}

func TestMIPStartHonored(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	m := randomModel(r, 6, 4, 0.5)
	want, wantSel := bruteForce(m)
	res := Solve(m, Options{GapTol: 1e-9, RootIters: 50, MaxNodes: 0, Start: wantSel})
	if math.Abs(res.Objective-want) > 1e-9 {
		t.Fatalf("MIP start lost: got %v, start value %v", res.Objective, want)
	}
}

func TestWarmStartReducesIterations(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	m := randomModel(r, 8, 12, 0.5)
	cold := Solve(m, Options{GapTol: 0.01, RootIters: 600, MaxNodes: 100})
	warm := Solve(m, Options{GapTol: 0.01, RootIters: 600, MaxNodes: 100, Warm: cold.Lambda, Start: cold.Selected})
	if warm.Objective > cold.Objective*1.000001 {
		t.Fatalf("warm start worsened objective: %v vs %v", warm.Objective, cold.Objective)
	}
	if warm.Iters > cold.Iters {
		t.Fatalf("warm start took more iterations: %d vs %d", warm.Iters, cold.Iters)
	}
}

func TestProgressEvents(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	m := randomModel(r, 8, 10, 0.5)
	var events []Event
	Solve(m, Options{GapTol: 1e-6, RootIters: 300, Progress: func(e Event) { events = append(events, e) }})
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Upper > events[i-1].Upper+1e-9 {
			t.Fatalf("incumbent worsened at event %d", i)
		}
		if events[i].Lower < events[i-1].Lower-1e-9 {
			t.Fatalf("lower bound regressed at event %d", i)
		}
	}
}

func TestGapToleranceStopsEarly(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	m := randomModel(r, 10, 15, 0.4)
	loose := Solve(m, Options{GapTol: 0.25, RootIters: 2000, MaxNodes: 2000})
	tight := Solve(m, Options{GapTol: 1e-9, RootIters: 2000, MaxNodes: 2000})
	if loose.Iters > tight.Iters {
		t.Fatalf("loose tolerance used more iterations: %d vs %d", loose.Iters, tight.Iters)
	}
	if loose.Gap > 0.25+1e-9 && tight.Gap < loose.Gap {
		// loose stopping is only justified if its gap is within tol
		t.Fatalf("loose gap %v exceeds tolerance", loose.Gap)
	}
}

func TestEvaluateMatchesManual(t *testing.T) {
	m := NewModel(2)
	m.FixedCost = []float64{3, 4}
	m.Size = []float64{1, 1}
	m.Const = 10
	m.Blocks = []Block{
		{Weight: 2, Choices: []Choice{
			{Fixed: 5, Slots: []Slot{{{Index: 0, Cost: 1}, {Index: NoIndex, Cost: 20}}}},
			{Fixed: 8, Slots: []Slot{{{Index: 1, Cost: 2}, {Index: NoIndex, Cost: 10}}}},
		}},
	}
	laidOut(m)
	// Selection {}: choice1 = 5+20=25, choice2 = 8+10=18 → 18. Total 10+2*18=46.
	obj, ok := m.Evaluate([]bool{false, false})
	if !ok || math.Abs(obj-46) > 1e-9 {
		t.Fatalf("empty eval = %v, %v", obj, ok)
	}
	// Selection {0}: choice1 = 5+1=6 → weighted 12; +fixed 3 + 10 = 25.
	obj, ok = m.Evaluate([]bool{true, false})
	if !ok || math.Abs(obj-25) > 1e-9 {
		t.Fatalf("eval with index 0 = %v, %v", obj, ok)
	}
}

// TestValidateRejectsBadModels holds Validate to its model-level
// checks; the per-option ones are NewLayout's
// (TestNewLayoutRejectsBadChoices).
func TestValidateRejectsBadModels(t *testing.T) {
	layout := func(choices ...Choice) *Layout {
		l, err := NewLayout(choices)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	fallback := Choice{Fixed: 1, Slots: []Slot{{{Index: 0, Cost: 1}, {Index: NoIndex, Cost: 2}}}}
	good := NewModel(1)
	good.Blocks = []Block{{Weight: 1}}
	good.Blocks[0].SetLayout(layout(fallback))
	good.Extra = []Constraint{{Terms: []Term{{Index: 0, Coef: 1}}, Sense: lp.LE, RHS: 1}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid model: %v", err)
	}
	for name, bad := range map[string]func(m *Model){
		"a block without a layout": func(m *Model) { m.Blocks[0] = Block{Weight: 1, Choices: m.Blocks[0].Choices} },
		"choices that are not the layout's": func(m *Model) {
			m.Blocks[0].Choices = []Choice{fallback}
		},
		"choices cut from the layout's": func(m *Model) {
			m.Blocks[0].SetLayout(layout(fallback, Choice{Fixed: 2}))
			m.Blocks[0].Choices = m.Blocks[0].Choices[:1]
		},
		"an index at NumIndexes": func(m *Model) {
			m.Blocks[0].SetLayout(layout(Choice{Slots: []Slot{{{Index: 1, Cost: 1}, {Index: NoIndex, Cost: 2}}}}))
		},
		"a side-row term out of range": func(m *Model) {
			m.Extra = []Constraint{{Terms: []Term{{Index: 1, Coef: 1}}, Sense: lp.LE, RHS: 1, Name: "row"}}
		},
	} {
		m := *good
		m.Blocks = slices.Clone(good.Blocks)
		bad(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s must fail validation", name)
		}
	}
}

func TestLowerBoundNeverExceedsOptimum(t *testing.T) {
	check := func(name string, m *Model) {
		t.Helper()
		res := Solve(m, Options{GapTol: 1e-9, RootIters: 300, MaxNodes: 200})
		want, _ := bruteForce(m)
		if res.Lower > want+math.Abs(want)*1e-6+1e-6 {
			t.Fatalf("%s: lower bound %v > optimum %v", name, res.Lower, want)
		}
		if res.Objective < want-math.Abs(want)*1e-6-1e-6 {
			t.Fatalf("%s: objective %v < optimum %v", name, res.Objective, want)
		}
	}
	r := rand.New(rand.NewSource(67))
	for trial := 0; trial < 20; trial++ {
		check(fmt.Sprintf("trial %d", trial), randomModel(r, 5+r.Intn(3), 2+r.Intn(4), 0.5))
	}

	// Constrained models in bytes: sizes and budget scaled by 10^k, an
	// index-count row beside a size row, so the z polytope mixes unit
	// and byte-scale rows and every solve runs the LP z subproblem.
	r = rand.New(rand.NewSource(101))
	half := func(n int) []int32 {
		var idx []int32
		for _, a := range r.Perm(n)[:n/2] {
			idx = append(idx, int32(a))
		}
		return idx
	}
	for trial := 0; trial < 40; trial++ {
		n := 8 + r.Intn(5)
		m := randomModel(r, n, 2+r.Intn(4), 0.5)
		scale := math.Pow(10, float64(3+r.Intn(7)))
		for a := range m.Size {
			m.Size[a] *= scale
		}
		m.Budget *= scale
		count := Constraint{Sense: lp.LE, RHS: float64(1 + r.Intn(3)), Name: "count"}
		for _, a := range half(n) {
			count.Terms = append(count.Terms, Term{a, 1})
		}
		size := Constraint{Sense: lp.LE, Name: "size"}
		for _, a := range half(n) {
			size.Terms = append(size.Terms, Term{a, m.Size[a]})
			size.RHS += 0.4 * m.Size[a]
		}
		m.Extra = []Constraint{count, size}
		check(fmt.Sprintf("constrained trial %d", trial), m)
	}
}
