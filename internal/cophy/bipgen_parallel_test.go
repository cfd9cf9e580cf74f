package cophy

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/inum"
	"repro/internal/lagrange"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// parallelInstance builds a moderately sized instance with updates in
// the workload, so both the query-block and the update-cost parallel
// paths run.
func parallelInstance(t *testing.T, workers int) *Instance {
	t.Helper()
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	eng := engine.New(cat, engine.SystemA())
	w := workload.Het(workload.HetConfig{Queries: 18, Seed: 311})
	ad := NewAdvisor(cat, eng, Options{})
	s := Candidates(cat, w, CGenOptions{Covering: true})
	inst := InstanceForTest(ad, w, s)
	inst.Workers = workers
	ad.Inum.Prepare(w)
	return inst
}

// TestBuildModelMatchesReference pins the dense parallel BuildModel to
// the serial reference implementation below: the emitted models must be
// equal by value — same blocks (ID, weight, cap and choices), same
// option order, same coefficients to the last bit, the same dominated
// candidates left out — and solve to the same bits. The reference gives
// every slot its own allocation, so their layouts' distinct slots
// differ: only values are compared.
func TestBuildModelMatchesReference(t *testing.T) {
	inst := parallelInstance(t, 4)
	got, err := BuildModel(inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, mask := maskedAndFull(t, inst, NoConstraints()); !slices.Contains(mask, true) {
		t.Fatal("no candidate is dominated: the reference's mask goes untested")
	}
	want, err := buildModelSerial(inst)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumIndexes != want.NumIndexes || got.Const != want.Const {
		t.Fatalf("scalars differ: (%d, %v) vs (%d, %v)", got.NumIndexes, got.Const, want.NumIndexes, want.Const)
	}
	if !reflect.DeepEqual(got.FixedCost, want.FixedCost) {
		t.Fatal("FixedCost differs between dense and reference build")
	}
	if !reflect.DeepEqual(got.Size, want.Size) {
		t.Fatal("Size differs between dense and reference build")
	}
	if len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("block counts differ: %d vs %d", len(got.Blocks), len(want.Blocks))
	}
	for bi := range got.Blocks {
		g, w := &got.Blocks[bi], &want.Blocks[bi]
		if g.ID != w.ID || g.Weight != w.Weight || g.CostCap != w.CostCap || !reflect.DeepEqual(g.Choices, w.Choices) {
			t.Fatalf("block %d differs between dense and reference build", bi)
		}
	}
	var total float64
	for _, sz := range got.Size {
		total += sz
	}
	got.Budget, want.Budget = total/4, total/4
	opts := lagrange.Options{GapTol: 1e-4, RootIters: 200, MaxNodes: 4}
	if a, b := lagrange.Solve(got, opts), lagrange.Solve(want, opts); !reflect.DeepEqual(a, b) {
		t.Fatalf("dense and reference models solve differently:\n dense     %+v\n reference %+v", a, b)
	}
}

// TestBuildModelDeterministic asserts worker interleaving cannot
// change the emitted model (the -race companion of the reference
// test).
func TestBuildModelDeterministic(t *testing.T) {
	inst := parallelInstance(t, 4)
	a, err := BuildModel(inst)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildModel(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("BuildModel is not deterministic across runs")
	}
}

// buildModelSerial is the reference implementation of BuildModel — the
// test oracle of TestBuildModelMatchesReference: one γ probe at a time
// through Cache.Gamma, one query at a time, no matrix, no workers, and
// the dominance mask by pairwise comparison over the options emitted.
// Each block gets its layout last, once the mask has been applied.
func buildModelSerial(inst *Instance) (*lagrange.Model, error) {
	m := lagrange.NewModel(len(inst.S))
	pos := make(map[string]int32, len(inst.S))
	for i, ix := range inst.S {
		pos[ix.ID()] = int32(i)
		t := inst.Cat.Table(ix.Table)
		if t == nil {
			return nil, fmt.Errorf("cophy: candidate %s references unknown table", ix.ID())
		}
		m.Size[i] = float64(ix.Bytes(t))
	}
	for _, s := range inst.Workload.Updates() {
		u := s.Update
		m.Const += s.Weight * inst.Eng.BaseUpdateCost(u)
		for i, ix := range inst.S {
			if c := inst.Eng.UpdateCost(u, ix); c > 0 {
				m.FixedCost[i] += s.Weight * c
			}
		}
	}
	for _, s := range inst.Workload.Queries() {
		q := s.Query
		qi := inst.Inum.PrepareQuery(q)
		if len(qi.Templates) == 0 {
			return nil, fmt.Errorf("cophy: no templates for %s", q.ID)
		}
		blk := lagrange.Block{ID: q.ID, Weight: s.Weight}
		for ti, tpl := range qi.Templates {
			ch := lagrange.Choice{Fixed: tpl.Internal}
			feasible := true
			for si := range tpl.Slots {
				slot := inst.slotOptions(qi, ti, si, pos)
				if len(slot) == 0 {
					feasible = false
					break
				}
				ch.Slots = append(ch.Slots, slot)
			}
			if feasible {
				blk.Choices = append(blk.Choices, ch)
			}
		}
		if len(blk.Choices) == 0 {
			return nil, fmt.Errorf("cophy: no feasible choice for %s", q.ID)
		}
		m.Blocks = append(m.Blocks, blk)
	}
	mask := newNaiveDominance(m).mask()
	for bi := range m.Blocks {
		for _, ch := range m.Blocks[bi].Choices {
			for si, slot := range ch.Slots {
				ch.Slots[si] = slices.DeleteFunc(slot, func(o lagrange.Option) bool {
					return o.Index != lagrange.NoIndex && mask[o.Index]
				})
			}
		}
		l, err := lagrange.NewLayout(m.Blocks[bi].Choices)
		if err != nil {
			return nil, err
		}
		m.Blocks[bi].SetLayout(l)
	}
	return m, nil
}

// slotOptions prices one template slot: the free option (I∅ or a
// baseline index) plus one option per compatible candidate on the
// slot's table.
func (inst *Instance) slotOptions(qi *inum.QueryInfo, ti, si int, pos map[string]int32) lagrange.Slot {
	tpl := qi.Templates[ti]
	table := tpl.Slots[si].Table
	var slot lagrange.Slot

	// Free option: the cheapest always-available access method.
	free := math.Inf(1)
	if g, ok := inst.Inum.Gamma(qi, ti, si, nil); ok {
		free = g
	}
	for _, bx := range inst.Baseline.OnTable(table) {
		if g, ok := inst.Inum.Gamma(qi, ti, si, bx); ok && g < free {
			free = g
		}
	}
	if !math.IsInf(free, 1) {
		slot = append(slot, lagrange.Option{Index: lagrange.NoIndex, Cost: free})
	}

	for _, ix := range inst.S {
		if ix.Table != table {
			continue
		}
		if g, ok := inst.Inum.Gamma(qi, ti, si, ix); ok {
			// An option is useful only if it can beat the free one.
			if g < free {
				slot = append(slot, lagrange.Option{Index: pos[ix.ID()], Cost: g})
			}
		}
	}
	return slot
}
