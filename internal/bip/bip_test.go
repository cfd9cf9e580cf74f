package bip

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

// knapsackModel builds max Σ v x (as min −v x) s.t. Σ w x ≤ cap, x binary.
func knapsackModel(vals, wts []float64, cap float64) Model {
	p := lp.NewProblem(len(vals))
	var coefs []lp.Coef
	bins := make([]int, len(vals))
	for i := range vals {
		p.SetObj(i, -vals[i])
		p.SetBounds(i, 0, 1)
		coefs = append(coefs, lp.Coef{Col: i, Val: wts[i]})
		bins[i] = i
	}
	p.AddRow(coefs, lp.LE, cap)
	return Model{P: p, Binaries: bins}
}

// bruteKnapsack enumerates all subsets.
func bruteKnapsack(vals, wts []float64, cap float64) float64 {
	n := len(vals)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		var v, w float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				v += vals[i]
				w += wts[i]
			}
		}
		if w <= cap && v > best {
			best = v
		}
	}
	return best
}

func TestKnapsackExact(t *testing.T) {
	vals := []float64{60, 100, 120}
	wts := []float64{10, 20, 30}
	r := Solve(knapsackModel(vals, wts, 50), Options{})
	if r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	if math.Abs(-r.Obj-220) > 1e-6 {
		t.Fatalf("obj = %v, want -220", r.Obj)
	}
}

func TestRandomKnapsacksMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(8)
		vals := make([]float64, n)
		wts := make([]float64, n)
		var total float64
		for i := range vals {
			vals[i] = 1 + math.Floor(rng.Float64()*50)
			wts[i] = 1 + math.Floor(rng.Float64()*30)
			total += wts[i]
		}
		cap := math.Floor(total * (0.3 + rng.Float64()*0.4))
		r := Solve(knapsackModel(vals, wts, cap), Options{})
		want := bruteKnapsack(vals, wts, cap)
		if r.Status != Optimal || math.Abs(-r.Obj-want) > 1e-6 {
			t.Fatalf("trial %d (n=%d cap=%v): got %v (%v), want %v", trial, n, cap, -r.Obj, r.Status, want)
		}
	}
}

func TestInfeasibleBIP(t *testing.T) {
	p := lp.NewProblem(2)
	for j := 0; j < 2; j++ {
		p.SetBounds(j, 0, 1)
	}
	p.AddRow([]lp.Coef{{Col: 0, Val: 1}, {Col: 1, Val: 1}}, lp.GE, 3)
	r := Solve(Model{P: p, Binaries: []int{0, 1}}, Options{})
	if r.Status != Infeasible {
		t.Fatalf("status = %v", r.Status)
	}
	if s := lp.Solve(p); s.Status != lp.Infeasible {
		t.Fatalf("LP relaxation of x+y ≥ 3 with x,y ≤ 1: %v, want infeasible", s.Status)
	}
}

func TestIntegralityGapBranching(t *testing.T) {
	// LP relaxation is fractional: x+y ≤ 1, maximize x+y with a
	// coupling row forcing x = y. Optimum binary: 0. The solver must
	// branch, not just round.
	p := lp.NewProblem(2)
	p.SetObj(0, -1)
	p.SetObj(1, -1)
	p.SetBounds(0, 0, 1)
	p.SetBounds(1, 0, 1)
	p.AddRow([]lp.Coef{{Col: 0, Val: 1}, {Col: 1, Val: 1}}, lp.LE, 1)
	p.AddRow([]lp.Coef{{Col: 0, Val: 1}, {Col: 1, Val: -1}}, lp.EQ, 0)
	r := Solve(Model{P: p, Binaries: []int{0, 1}}, Options{})
	if r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	if math.Abs(r.Obj) > 1e-6 {
		t.Fatalf("obj = %v, want 0", r.Obj)
	}
}

func TestMIPStartAccepted(t *testing.T) {
	vals := []float64{10, 20, 30}
	wts := []float64{1, 2, 3}
	m := knapsackModel(vals, wts, 3)
	// Valid start: take item 2 (weight 3, value 30).
	start := []float64{0, 0, 1}
	var events int
	r := Solve(m, Options{Start: start, Progress: func(Event) { events++ }})
	if r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	if math.Abs(-r.Obj-30) > 1e-6 {
		t.Fatalf("obj = %v", -r.Obj)
	}
}

func TestMIPStartInfeasibleIgnored(t *testing.T) {
	m := knapsackModel([]float64{10}, []float64{5}, 3)
	r := Solve(m, Options{Start: []float64{1}}) // violates knapsack
	if r.Status != Optimal || r.Obj != 0 {
		t.Fatalf("status=%v obj=%v", r.Status, r.Obj)
	}
}

func TestGapToleranceEarlyStop(t *testing.T) {
	// A larger knapsack with 5% gap tolerance must stop with a bound
	// certificate no worse than 5%.
	rng := rand.New(rand.NewSource(11))
	n := 20
	vals := make([]float64, n)
	wts := make([]float64, n)
	var total float64
	for i := range vals {
		vals[i] = 1 + rng.Float64()*50
		wts[i] = 1 + rng.Float64()*30
		total += wts[i]
	}
	m := knapsackModel(vals, wts, total*0.4)
	r := Solve(m, Options{GapTol: 0.05})
	if r.Status == Infeasible {
		t.Fatal("knapsack cannot be infeasible")
	}
	if r.Gap > 0.05+1e-9 && r.Status != Optimal {
		t.Fatalf("gap = %v after early stop", r.Gap)
	}
}

func TestProgressEventsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 14
	vals := make([]float64, n)
	wts := make([]float64, n)
	var total float64
	for i := range vals {
		vals[i] = 1 + rng.Float64()*50
		wts[i] = 1 + rng.Float64()*30
		total += wts[i]
	}
	m := knapsackModel(vals, wts, total*0.5)
	var uppers []float64
	Solve(m, Options{Progress: func(e Event) { uppers = append(uppers, e.Upper) }})
	for i := 1; i < len(uppers); i++ {
		if uppers[i] > uppers[i-1]+1e-9 {
			t.Fatalf("incumbent worsened: %v -> %v", uppers[i-1], uppers[i])
		}
	}
	if len(uppers) == 0 {
		t.Fatal("no progress events emitted")
	}
}

func TestNodeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 18
	vals := make([]float64, n)
	wts := make([]float64, n)
	var total float64
	for i := range vals {
		vals[i] = 1 + rng.Float64()*50
		wts[i] = 1 + rng.Float64()*30
		total += wts[i]
	}
	m := knapsackModel(vals, wts, total*0.5)
	r := Solve(m, Options{MaxNodes: 3})
	if r.Nodes > 3 {
		t.Fatalf("explored %d nodes with limit 3", r.Nodes)
	}
}

func TestEqualityConstrainedBIP(t *testing.T) {
	// Choose exactly one of three options, each with a cost;
	// minimum is the cheapest option.
	p := lp.NewProblem(3)
	costs := []float64{5, 3, 9}
	var coefs []lp.Coef
	for j, c := range costs {
		p.SetObj(j, c)
		p.SetBounds(j, 0, 1)
		coefs = append(coefs, lp.Coef{Col: j, Val: 1})
	}
	p.AddRow(coefs, lp.EQ, 1)
	r := Solve(Model{P: p, Binaries: []int{0, 1, 2}}, Options{})
	if r.Status != Optimal || math.Abs(r.Obj-3) > 1e-6 {
		t.Fatalf("status=%v obj=%v", r.Status, r.Obj)
	}
	if math.Abs(r.X[1]-1) > 1e-6 {
		t.Fatalf("wrong option chosen: %v", r.X)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min −x − 0.5y with x binary, y continuous in [0, 2.5],
	// x + y ≤ 3 → x = 1, y = 2, obj = −2.
	p := lp.NewProblem(2)
	p.SetObj(0, -1)
	p.SetObj(1, -0.5)
	p.SetBounds(0, 0, 1)
	p.SetBounds(1, 0, 2.5)
	p.AddRow([]lp.Coef{{Col: 0, Val: 1}, {Col: 1, Val: 1}}, lp.LE, 3)
	r := Solve(Model{P: p, Binaries: []int{0}}, Options{})
	if r.Status != Optimal || math.Abs(r.Obj+2) > 1e-6 {
		t.Fatalf("status=%v obj=%v x=%v", r.Status, r.Obj, r.X)
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Feasible.String() != "feasible" || Infeasible.String() != "infeasible" {
		t.Fatal("status rendering")
	}
}
