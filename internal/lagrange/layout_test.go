package lagrange

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/lp"
)

// packed copies m with every block's choices laid out the way BIPGen
// builds them: one options array, one slots array and one choices array
// per block, each Slot and each Choice.Slots a cap == len window into
// them. Under share, the slots of a block whose options are equal in
// (Index, Cost bits) are one window, as BIPGen passes a repeated slot;
// otherwise each slot gets its own. Each block gets a layout of its copy.
func packed(m *Model, share bool) *Model {
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
		var laid []Slot
		for _, c := range b.Choices {
			s0 := len(slots)
			for _, s := range c.Slots {
				k := slices.IndexFunc(laid, func(w Slot) bool { return share && sameBits(w, s) })
				if k < 0 {
					o0 := len(opts)
					opts = append(opts, s...)
					laid, k = append(laid, opts[o0:len(opts):len(opts)]), len(laid)
				}
				slots = append(slots, laid[k])
			}
			choices = append(choices, Choice{Fixed: c.Fixed, Slots: slots[s0:len(slots):len(slots)]})
		}
		p.Blocks[bi] = b
		p.Blocks[bi].Choices = choices
	}
	return laidOut(&p)
}

// sameBits reports whether two slots hold the same options in the same
// order, bit for bit in (Index, Cost).
func sameBits(x, y Slot) bool {
	return slices.EqualFunc(x, y, func(a, b Option) bool {
		return a.Index == b.Index && math.Float64bits(a.Cost) == math.Float64bits(b.Cost)
	})
}

// owned copies m with every slot in an allocation of its own.
func owned(m *Model) *Model {
	p := *m
	p.Blocks = slices.Clone(m.Blocks)
	for bi, b := range p.Blocks {
		choices := slices.Clone(b.Choices)
		for ci := range choices {
			choices[ci].Slots = slices.Clone(choices[ci].Slots)
			for k, s := range choices[ci].Slots {
				choices[ci].Slots[k] = slices.Clone(s)
			}
		}
		p.Blocks[bi].Choices = choices
	}
	return laidOut(&p)
}

// TestSolveLayoutIndependent pins that the solver depends on the
// model's values and their order, never on its backing arrays: a model
// whose every slot is its own allocation, its packed copy, and its
// packed copy with every equal slot of a block passed as one window
// solve to the same selection, bounds, effort and duals.
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
	// Tie models repeat slots within their blocks, so the shared form
	// differs from the others.
	for trial := 0; trial < 8; trial++ {
		m := tieModel(r, 10+r.Intn(10), 6+r.Intn(6))
		for a := range m.Size {
			m.Size[a], m.FixedCost[a] = float64(1+r.Intn(5)), float64(r.Intn(3))
		}
		m.Budget = float64(m.NumIndexes)
		models = append(models, m)
	}
	shared := 0
	for i, m := range models {
		opts := Options{GapTol: 1e-6, RootIters: 120, MaxNodes: 8, Workers: 1 + i%2}
		own, sh := owned(m), packed(m, true)
		want := Solve(own, opts)
		for name, p := range map[string]*Model{"packed": packed(m, false), "packed and shared": sh} {
			if got := Solve(p, opts); !reflect.DeepEqual(want, got) {
				t.Fatalf("model %d: %s copy solves differently:\n own slots %+v\n %s %+v", i, name, want, name, got)
			}
		}
		across, _ := repeats(sh)
		shared += across
	}
	if shared < 100 {
		t.Fatalf("coverage: only %d slots share a window with an earlier one", shared)
	}
}

// refGroups numbers a block's multiplier groups by the plain rule:
// walk the choices and their slots in order, and give the indexes a slot
// offers that no earlier slot offered the next numbers, ascending.
func refGroups(choices []Choice) []int32 {
	seen := map[int32]bool{}
	var groups []int32
	for _, c := range choices {
		for _, s := range c.Slots {
			var fresh []int32
			for _, o := range s {
				if o.Index != NoIndex && !seen[o.Index] {
					seen[o.Index] = true
					fresh = append(fresh, o.Index)
				}
			}
			slices.Sort(fresh)
			groups = append(groups, fresh...)
		}
	}
	return groups
}

// TestLayoutGroupsMatchReference holds NewLayout's numbering to refGroups
// on random choices — indexes offered by several slots and choices, I∅,
// integer γ so costs tie — and checks that every option's Group names
// its own index, I∅'s none, and that each slot comes back sorted.
func TestLayoutGroupsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(523))
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(12)
		var choices []Choice
		for c := 0; c < 1+r.Intn(4); c++ {
			// Each slot draws from its own residue class, so no index
			// repeats across the slots of a choice.
			slots := 1 + r.Intn(3)
			ch := Choice{Fixed: float64(r.Intn(5))}
			for sl := 0; sl < slots; sl++ {
				var slot Slot
				if c == 0 || r.Intn(2) == 0 {
					slot = append(slot, Option{Index: NoIndex, Cost: float64(r.Intn(6))})
				}
				for o := 0; o < 1+r.Intn(5); o++ {
					a := int32(sl + slots*r.Intn(n))
					slot = append(slot, Option{Index: a, Cost: float64(r.Intn(6))})
				}
				ch.Slots = append(ch.Slots, slot)
			}
			choices = append(choices, ch)
		}
		want := refGroups(choices)
		l, err := NewLayout(choices)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !slices.Equal(l.groupIdx, want) {
			t.Fatalf("trial %d: groups %v, reference %v", trial, l.groupIdx, want)
		}
		for _, c := range l.choices {
			for _, s := range c.Slots {
				if !slices.IsSortedFunc(s, cmpOption) {
					t.Fatalf("trial %d: slot %v not in (cost, index) order", trial, s)
				}
				for _, o := range s {
					if o.Index == NoIndex && o.Group != -1 || o.Index != NoIndex && l.groupIdx[o.Group] != o.Index {
						t.Fatalf("trial %d: option %+v has the wrong group", trial, o)
					}
				}
			}
		}
	}
}

// TestNewLayoutRejectsBadChoices covers NewLayout's per-option checks,
// and that it sorts a slot given out of (cost, index) order.
func TestNewLayoutRejectsBadChoices(t *testing.T) {
	free := Option{Index: NoIndex, Cost: 5}
	window := Slot{free, {Index: 0, Cost: 1}}
	for name, choices := range map[string][]Choice{
		"no choices":       nil,
		"an empty slot":    {{Fixed: 1, Slots: []Slot{{}}}},
		"a NaN cost":       {{Fixed: 1, Slots: []Slot{{{Index: NoIndex, Cost: math.NaN()}}}}},
		"a negative index": {{Fixed: 1, Slots: []Slot{{{Index: -2, Cost: 1}, free}}}},
		"an index repeated across slots": {{Fixed: 1, Slots: []Slot{
			{{Index: 0, Cost: 1}, free},
			{{Index: 0, Cost: 2}, free},
		}}},
		"no index-free fallback": {{Fixed: 1, Slots: []Slot{{{Index: 0, Cost: 1}}}}},
		"a window starting where another does, shorter": {
			{Fixed: 1, Slots: []Slot{window}},
			{Fixed: 2, Slots: []Slot{window[:1:1]}},
		},
	} {
		if _, err := NewLayout(choices); err == nil {
			t.Errorf("%s must be rejected", name)
		}
	}
	slot := Slot{{Index: 1, Cost: 1}, {Index: NoIndex, Cost: 2}, {Index: 0, Cost: 1}}
	if _, err := NewLayout([]Choice{{Fixed: 1, Slots: []Slot{slot}}}); err != nil {
		t.Fatal(err)
	}
	want := Slot{{Index: 0, Group: 0, Cost: 1}, {Index: 1, Group: 1, Cost: 1}, {Index: NoIndex, Group: -1, Cost: 2}}
	if !slices.Equal(slot, want) {
		t.Fatalf("laid out slot %v, want %v", slot, want)
	}
}

// TestLayoutSharesRepeatedSlots holds NewLayout's distinct slots to
// the identity rule: a slot passed again as the same window shares its
// position, and a slot with equal options in a window of its own does
// not. Each choice's refs name its slots in order, and every slot comes
// back sorted.
func TestLayoutSharesRepeatedSlots(t *testing.T) {
	base := func() Slot { return Slot{{Index: 2, Cost: 3}, {Index: NoIndex, Cost: 0}, {Index: 0, Cost: 1}} }
	for name, tc := range map[string]struct {
		clone bool
		share bool
	}{
		"same window": {false, true},
		"equal clone": {true, false},
	} {
		first := base()
		other := first
		if tc.clone {
			other = base()
		}
		l, err := NewLayout([]Choice{{Fixed: 1, Slots: []Slot{first}}, {Fixed: 2, Slots: []Slot{other}}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if shared := len(l.slots) == 1; shared != tc.share {
			t.Errorf("%s: %d distinct slots, want shared = %v", name, len(l.slots), tc.share)
		}
	}

	// Random blocks: half the slots reuse an earlier window of the
	// block, a third of those as an equal clone in a window of its own.
	r := rand.New(rand.NewSource(617))
	shared, clones := 0, 0
	for trial := 0; trial < 300; trial++ {
		var choices []Choice
		var pool []Slot
		for c := 0; c < 1+r.Intn(4); c++ {
			ch := Choice{Fixed: float64(r.Intn(3))}
			used := map[int32]bool{} // the indexes the choice's slots offer
			for sl := 0; sl < 1+r.Intn(3); sl++ {
				var s, prev Slot
				if len(pool) > 0 && r.Intn(2) == 0 {
					prev = pool[r.Intn(len(pool))]
				}
				if prev != nil && !slices.ContainsFunc(prev, func(o Option) bool { return used[o.Index] }) {
					s = prev
					if r.Intn(3) == 0 {
						s = slices.Clone(prev)
						pool = append(pool, s)
						clones++
					}
				} else {
					s = Slot{{Index: NoIndex, Cost: float64(r.Intn(3))}}
					if a := int32(r.Intn(12)); r.Intn(3) > 0 && !used[a] {
						s = append(s, Option{Index: a, Cost: float64(r.Intn(3))})
					}
					pool = append(pool, s)
				}
				for _, o := range s {
					if o.Index != NoIndex {
						used[o.Index] = true
					}
				}
				ch.Slots = append(ch.Slots, s)
			}
			choices = append(choices, ch)
		}
		l, err := NewLayout(choices)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Reference: number the slots by the first occurrence of their
		// window.
		firsts := map[*Option]int{}
		for ci, ch := range choices {
			for k, s := range ch.Slots {
				d, ok := firsts[&s[0]]
				if !ok {
					d = len(firsts)
					firsts[&s[0]] = d
				} else {
					shared++
				}
				if got := l.refs[ci][k]; got != int32(d) {
					t.Fatalf("trial %d: choice %d slot %d at position %d, reference %d", trial, ci, k, got, d)
				}
				if rep := l.slots[d]; &rep[0] != &s[0] || len(rep) != len(s) || !slices.IsSortedFunc(s, cmpOption) {
					t.Fatalf("trial %d: choice %d slot %d laid out as %v, its position holds %v", trial, ci, k, s, rep)
				}
			}
		}
		if len(l.slots) != len(firsts) {
			t.Fatalf("trial %d: %d distinct slots, reference %d", trial, len(l.slots), len(firsts))
		}
	}
	if shared < 150 || clones < 50 {
		t.Fatalf("coverage: %d slots reuse an earlier window, %d are equal clones", shared, clones)
	}
}
