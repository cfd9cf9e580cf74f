package lagrange

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/lp"
)

// packed copies m with every block's choices laid out the way BIPGen
// builds them: one options array, one slots array and one choices array
// per block, each Slot and each Choice.Slots a cap == len window into
// them. Each block gets a layout of its copy.
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
		p.Blocks[bi] = b
		p.Blocks[bi].Choices = choices
	}
	return laidOut(&p)
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
// the plain rule: two slots share one position exactly when their
// options as given are equal, option for option and bit for bit in
// (Index, Cost). Slots differing in one index, in one bit of one cost,
// or in the sign of a zero cost keep their own. Each choice's refs
// name its slots in order, and every repeat is a full copy of its
// position's laid-out options.
func TestLayoutSharesRepeatedSlots(t *testing.T) {
	base := Slot{{Index: 2, Cost: 3}, {Index: NoIndex, Cost: 0}, {Index: 0, Cost: 1}}
	variant := func(edit func(Slot)) Slot {
		s := slices.Clone(base)
		edit(s)
		return s
	}
	for name, tc := range map[string]struct {
		other Slot
		share bool
	}{
		"equal":            {slices.Clone(base), true},
		"one index":        {variant(func(s Slot) { s[2].Index = 1 }), false},
		"one cost bit":     {variant(func(s Slot) { s[0].Cost = math.Nextafter(3, 4) }), false},
		"−0 vs +0":         {variant(func(s Slot) { s[1].Cost = math.Copysign(0, -1) }), false},
		"one option fewer": {base[:2:2], false},
	} {
		choices := []Choice{
			{Fixed: 1, Slots: []Slot{slices.Clone(base)}},
			{Fixed: 2, Slots: []Slot{slices.Clone(tc.other)}},
		}
		l, err := NewLayout(choices)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if shared := len(l.slots) == 1; shared != tc.share {
			t.Errorf("%s: %d distinct slots, want shared = %v", name, len(l.slots), tc.share)
		}
	}

	// Random blocks: half the slots copy an earlier one, a third of the
	// copies with one cost bit flipped (the lowest two, or the sign).
	r := rand.New(rand.NewSource(617))
	shared := 0
	for trial := 0; trial < 300; trial++ {
		var given [][]Slot // given[ci][k], before NewLayout
		var choices []Choice
		var pool []Slot
		for c := 0; c < 1+r.Intn(4); c++ {
			ch := Choice{Fixed: float64(r.Intn(3))}
			var row []Slot
			used := map[int32]bool{} // the indexes the choice's slots offer
			for sl := 0; sl < 1+r.Intn(3); sl++ {
				var s, prev Slot
				if len(pool) > 0 && r.Intn(2) == 0 {
					prev = pool[r.Intn(len(pool))]
				}
				if prev != nil && !slices.ContainsFunc(prev, func(o Option) bool { return used[o.Index] }) {
					s = slices.Clone(prev)
					if r.Intn(3) == 0 {
						k := r.Intn(len(s))
						bit := []uint{0, 1, 63}[r.Intn(3)]
						s[k].Cost = math.Float64frombits(math.Float64bits(s[k].Cost) ^ 1<<bit)
						pool = append(pool, slices.Clone(s))
					}
				} else {
					s = Slot{{Index: NoIndex, Cost: float64(r.Intn(3))}}
					if a := int32(r.Intn(12)); r.Intn(3) > 0 && !used[a] {
						s = append(s, Option{Index: a, Cost: float64(r.Intn(3))})
					}
					pool = append(pool, slices.Clone(s))
				}
				for _, o := range s {
					if o.Index != NoIndex {
						used[o.Index] = true
					}
				}
				ch.Slots = append(ch.Slots, s)
				row = append(row, slices.Clone(s))
			}
			choices = append(choices, ch)
			given = append(given, row)
		}
		l, err := NewLayout(choices)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Reference: number the slots by first occurrence of their
		// content as given, spelled out in bits.
		firsts := map[string]int{}
		for ci, row := range given {
			for k, s := range row {
				var key strings.Builder
				for _, o := range s {
					fmt.Fprintf(&key, "%d:%x ", o.Index, math.Float64bits(o.Cost))
				}
				d, ok := firsts[key.String()]
				if !ok {
					d = len(firsts)
					firsts[key.String()] = d
				} else {
					shared++
				}
				if got := l.refs[ci][k]; got != int32(d) {
					t.Fatalf("trial %d: choice %d slot %d at position %d, reference %d", trial, ci, k, got, d)
				}
				laid, rep := choices[ci].Slots[k], l.slots[d]
				if !slices.Equal(laid, rep) || !slices.IsSortedFunc(laid, cmpOption) {
					t.Fatalf("trial %d: choice %d slot %d laid out as %v, its position holds %v", trial, ci, k, laid, rep)
				}
			}
		}
		if len(l.slots) != len(firsts) {
			t.Fatalf("trial %d: %d distinct slots, reference %d", trial, len(l.slots), len(firsts))
		}
	}
	if shared < 200 {
		t.Fatalf("coverage: only %d slots repeat an earlier one", shared)
	}
}
