package lagrange_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/lagrange"
	"repro/internal/lp"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// golden is the exact outcome of one pinned solve.
type golden struct {
	Objective, Lower float64
	Iters, Nodes     int
	Selected         uint64 // selectionHash of Result.Selected
}

func selectionHash(sel []bool) uint64 {
	h := fnv.New64a()
	for _, on := range sel {
		if on {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

// bipgenModel compiles a CoPhy BIP over TPC-H SF1 at a storage budget
// of half the data.
func bipgenModel(t *testing.T, w *workload.Workload) *lagrange.Model {
	t.Helper()
	cat := tpch.Build(tpch.Config{ScaleFactor: 1})
	eng := engine.New(cat, engine.SystemA())
	ad := cophy.NewAdvisor(cat, eng, cophy.Options{})
	s := cophy.Candidates(cat, w, cophy.CGenOptions{Covering: true})
	inst := cophy.InstanceForTest(ad, w, s)
	ad.Inum.Prepare(w)
	m, err := cophy.BuildModel(inst)
	if err != nil {
		t.Fatal(err)
	}
	m.Budget = 0.5 * float64(cat.TotalBytes())
	return m
}

// TestSolveGolden pins the solver's exact answers — objective, bound,
// effort and selection, to the last bit — on models whose sizes and
// constraint coefficients are whole numbers, as BIPGen's are. Work the
// solver skips because its result cannot have changed (cached incumbent
// state, memoised one-flip outcomes, running feasibility totals) must
// leave every one of them unchanged.
func TestSolveGolden(t *testing.T) {
	small := lagrange.Options{GapTol: 1e-6, RootIters: 120, MaxNodes: 8, Workers: 2}
	bipgen := lagrange.Options{GapTol: 0.005, RootIters: 160, MaxNodes: 32, Workers: 2}
	withRows := func() *lagrange.Model {
		m := lagrange.IntegerBlockModel(9, 40, 30)
		atMost := lagrange.Constraint{Sense: lp.LE, RHS: 3, Name: "at-most-3"}
		atLeast := lagrange.Constraint{Sense: lp.GE, RHS: 1, Name: "at-least-1"}
		bytes := lagrange.Constraint{Sense: lp.LE, Name: "bytes"}
		for a := int32(0); a < 10; a++ {
			atMost.Terms = append(atMost.Terms, lagrange.Term{Index: a, Coef: 1})
			atLeast.Terms = append(atLeast.Terms, lagrange.Term{Index: a + 10, Coef: 1})
			bytes.Terms = append(bytes.Terms, lagrange.Term{Index: a + 20, Coef: m.Size[a+20]})
			bytes.RHS += m.Size[a+20]
		}
		bytes.RHS /= 2
		m.Extra = []lagrange.Constraint{atMost, atLeast, bytes}
		return m
	}
	cases := []struct {
		name  string
		solve func(t *testing.T) lagrange.Result
		want  golden
	}{
		{"budget", func(*testing.T) lagrange.Result {
			return lagrange.Solve(lagrange.IntegerBlockModel(5, 40, 30), small)
		}, golden{401.2685506071191, 394.86287985804069, 360, 8, 0x79b39f7cf222f521}},
		{"budget+rows", func(*testing.T) lagrange.Result {
			return lagrange.Solve(withRows(), small)
		}, golden{412.97376399392624, 409.81596016315109, 331, 8, 0x7a66cc5794bb32c}},
		{"cost-caps", func(*testing.T) lagrange.Result {
			return lagrange.Solve(lagrange.WithCostCaps(lagrange.IntegerBlockModel(13, 40, 30), 13), small)
		}, golden{461.4426839721234, 459.37217369078667, 360, 8, 0xab36dc37d3c5ffb5}},
		{"warm+mip-start", func(*testing.T) lagrange.Result {
			m := lagrange.IntegerBlockModel(17, 40, 30)
			cold := lagrange.Solve(m, small)
			warm := small
			warm.Warm, warm.Start = cold.Lambda, cold.Selected
			return lagrange.Solve(m, warm)
		}, golden{396.12799349735576, 396.08855020617091, 360, 8, 0xa3c3642f6fb05f97}},
		{"bipgen-hom40", func(t *testing.T) lagrange.Result {
			return lagrange.Solve(bipgenModel(t, workload.Hom(workload.HomConfig{Queries: 40, Seed: 5})), bipgen)
		}, golden{4270728.3473995691, 4219604.4684631098, 1440, 32, 0x275bfccaf0a7c8f8}},
		{"bipgen-het30", func(t *testing.T) lagrange.Result {
			return lagrange.Solve(bipgenModel(t, workload.Het(workload.HetConfig{Queries: 30, Seed: 5})), bipgen)
		}, golden{1020482.6023078189, 944457.7089186816, 1167, 32, 0x4b3759998f37a87b}},
	}
	for _, c := range cases {
		r := c.solve(t)
		got := golden{Objective: r.Objective, Lower: r.Lower, Iters: r.Iters, Nodes: r.Nodes, Selected: selectionHash(r.Selected)}
		if got != c.want {
			t.Errorf("%s: solve changed\n got  %s\n want %s", c.name, goLiteral(got), goLiteral(c.want))
		}
	}
}

// goLiteral prints a golden as the Go literal that pins it.
func goLiteral(g golden) string {
	return fmt.Sprintf("golden{%.17g, %.17g, %d, %d, %#x}", g.Objective, g.Lower, g.Iters, g.Nodes, g.Selected)
}
