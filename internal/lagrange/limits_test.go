package lagrange

import (
	"math/rand"
	"testing"
	"time"
)

func TestTimeLimitRespected(t *testing.T) {
	r := rand.New(rand.NewSource(140))
	m := randomModel(r, 12, 30, 0.4)
	start := time.Now()
	res := Solve(m, Options{GapTol: 1e-12, RootIters: 1_000_000, MaxNodes: 1_000_000, TimeLimit: 50 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("time limit ignored: ran %v", elapsed)
	}
	if res.Selected == nil {
		t.Fatal("a feasible incumbent must exist even under a time limit")
	}
}

func TestNegativeMaxNodesDisablesBranching(t *testing.T) {
	r := rand.New(rand.NewSource(141))
	m := randomModel(r, 10, 12, 0.4)
	res := Solve(m, Options{GapTol: 1e-12, RootIters: 100, MaxNodes: -1})
	if res.Nodes != 0 {
		t.Fatalf("branching ran %d nodes with MaxNodes=-1", res.Nodes)
	}
}

func TestIncumbentAlwaysFeasible(t *testing.T) {
	r := rand.New(rand.NewSource(142))
	for trial := 0; trial < 10; trial++ {
		m := randomModel(r, 8+r.Intn(4), 5+r.Intn(10), 0.3)
		res := Solve(m, Options{GapTol: 0.02, RootIters: 150, MaxNodes: 30})
		if res.Infeasible {
			continue
		}
		if ok, name := m.SelectionFeasible(res.Selected); !ok {
			t.Fatalf("trial %d: incumbent violates %s", trial, name)
		}
		obj, ok := m.Evaluate(res.Selected)
		if !ok {
			t.Fatalf("trial %d: incumbent not evaluable", trial)
		}
		if obj != res.Objective {
			t.Fatalf("trial %d: reported objective %v != evaluated %v", trial, res.Objective, obj)
		}
	}
}

func TestIdentifyInfeasiblePinpointsCulprit(t *testing.T) {
	m := NewModel(3)
	m.Size = []float64{1, 1, 1}
	m.FixedCost = []float64{0, 0, 0}
	m.Blocks = []Block{{Weight: 1, Choices: []Choice{{Fixed: 1}}}}
	m.Budget = 10
	m.Extra = []Constraint{
		{Terms: []Term{{0, 1}}, Sense: 0 /*LE*/, RHS: 1, Name: "fine"},
		{Terms: []Term{{1, 1}}, Sense: 1 /*GE*/, RHS: 5, Name: "impossible"},
	}
	culprits := m.IdentifyInfeasible()
	if len(culprits) != 1 || culprits[0] != "impossible" {
		t.Fatalf("culprits = %v", culprits)
	}
}
