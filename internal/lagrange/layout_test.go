package lagrange

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/lp"
)

// packed copies m with every block laid out the way BIPGen builds it:
// one options array, one slots array and one choices array per block,
// each Slot and each Choice.Slots a cap == len window into them.
func packed(m *Model) *Model {
	p := *m
	p.Blocks = make([]Block, len(m.Blocks))
	for bi, b := range m.Blocks {
		nSlots, nOpts := 0, 0
		for _, c := range b.Choices {
			nSlots += len(c.Slots)
			for _, s := range c.Slots {
				nOpts += len(s)
			}
		}
		opts := make([]Option, 0, nOpts)
		slots := make([]Slot, 0, nSlots)
		choices := make([]Choice, 0, len(b.Choices))
		for _, c := range b.Choices {
			s0 := len(slots)
			for _, s := range c.Slots {
				o0 := len(opts)
				opts = append(opts, s...)
				slots = append(slots, opts[o0:len(opts):len(opts)])
			}
			choices = append(choices, Choice{Fixed: c.Fixed, Slots: slots[s0:len(slots):len(slots)]})
		}
		b.Choices = choices
		p.Blocks[bi] = b
	}
	return &p
}

// TestSolveLayoutIndependent pins that the solver depends on the
// model's values and their order, never on its backing arrays: a model
// whose every slot is its own allocation and its packed copy solve to
// the same selection, bounds, effort and duals.
func TestSolveLayoutIndependent(t *testing.T) {
	sideConstraint := Constraint{
		Terms: []Term{{Index: 0, Coef: 1}, {Index: 1, Coef: 1}, {Index: 2, Coef: 1}},
		Sense: lp.LE, RHS: 2, Name: "atmost2",
	}
	var models []*Model
	r := rand.New(rand.NewSource(211))
	for trial := 0; trial < 12; trial++ {
		m := randomModel(r, 5+r.Intn(6), 3+r.Intn(6), []float64{0, 0.4}[trial%2])
		if trial%3 == 1 {
			m.Extra = append(m.Extra, sideConstraint)
		}
		if trial%4 >= 2 {
			for bi := range m.Blocks {
				if r.Intn(3) == 0 {
					m.Blocks[bi].CostCap = 60 + r.Float64()*120
				}
			}
		}
		models = append(models, m)
	}
	for _, seed := range []int64{3, 17} {
		m := randomBlockModel(seed, 40, 30)
		models = append(models, m)
		c := *m
		c.Extra = []Constraint{sideConstraint}
		models = append(models, &c)
	}
	for i, m := range models {
		opts := Options{GapTol: 1e-6, RootIters: 120, MaxNodes: 8, Workers: 1 + i%2}
		want, got := Solve(m, opts), Solve(packed(m), opts)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("model %d: packed copy solves differently:\n as generated %+v\n packed       %+v", i, want, got)
		}
	}
}
