package lagrange

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// tieModel builds a random model whose γ are small integers, so that
// equal values — between options of one slot, and between an option's
// γ + λ and another's — are common. An index may repeat within a slot
// but not across the slots of a choice. Blocks repeat slots the way
// BIPGen passes a statement's repeated template slots: a slot may be the
// very window an earlier choice of the block drew, and an I∅-only slot
// may occur twice, as one window, within one choice.
func tieModel(r *rand.Rand, blocks, indexes int) *Model {
	m := NewModel(indexes)
	for bi := 0; bi < blocks; bi++ {
		blk := Block{ID: fmt.Sprintf("t%02d", bi), Weight: 1}
		var drawn []Slot // the block's windows so far
		for c := 0; c < 1+r.Intn(3); c++ {
			ch := Choice{Fixed: float64(r.Intn(4))}
			used := map[int32]bool{}
			for sl := 0; sl < 1+r.Intn(3); sl++ {
				if len(drawn) > 0 && r.Intn(3) == 0 {
					// Repeat an earlier slot whose indexes this choice has
					// not used yet.
					prev := drawn[r.Intn(len(drawn))]
					if !slices.ContainsFunc(prev, func(o Option) bool { return o.Index != NoIndex && used[o.Index] }) {
						for _, o := range prev {
							used[o.Index] = true
						}
						ch.Slots = append(ch.Slots, prev)
						continue
					}
				}
				if r.Intn(8) == 0 {
					free := Slot{{Index: NoIndex, Cost: float64(r.Intn(7))}}
					ch.Slots = append(ch.Slots, free, free)
					drawn = append(drawn, free)
					continue
				}
				var slot Slot
				if c == 0 || r.Intn(3) > 0 {
					slot = append(slot, Option{Index: NoIndex, Cost: float64(r.Intn(7))})
				}
				for o := 0; o < 1+r.Intn(6); o++ {
					a := int32(r.Intn(indexes))
					if used[a] && !slices.ContainsFunc(slot, func(p Option) bool { return p.Index == a }) {
						continue
					}
					used[a] = true
					slot = append(slot, Option{Index: a, Cost: float64(r.Intn(7))})
				}
				if len(slot) == 0 {
					continue
				}
				ch.Slots = append(ch.Slots, slot)
				drawn = append(drawn, slot)
			}
			blk.Choices = append(blk.Choices, ch)
		}
		m.Blocks = append(m.Blocks, blk)
	}
	return laidOut(m)
}

// repeats counts, over m's blocks, the slots that share a position
// with an earlier slot of their block (across) and the choices that
// use one I∅-only position twice (twice).
func repeats(m *Model) (across, twice int) {
	for _, b := range m.Blocks {
		nSlots := 0
		for ci, refs := range b.layout.refs {
			nSlots += len(refs)
			seen := map[int32]bool{}
			for k, d := range refs {
				if seen[d] && len(b.Choices[ci].Slots[k]) == 1 && b.Choices[ci].Slots[k][0].Index == NoIndex {
					twice++
					break
				}
				seen[d] = true
			}
		}
		across += nSlots - len(b.layout.slots)
	}
	return across, twice
}

// fullScanDual is blockDual without the early exit: every option of
// every slot is priced, and the lowest (value, index) wins the slot.
func fullScanDual(s *solver, bi int) (float64, []int32) {
	b := &s.m.Blocks[bi]
	best, uses := math.Inf(1), []int32{}
	for _, c := range b.Choices {
		v, ok, groups := c.Fixed, true, []int32{}
		for _, slot := range c.Slots {
			slotBest, slotIndex, slotGroup := math.Inf(1), int32(math.MaxInt32), int32(-1)
			for _, o := range slot {
				g := o.Group
				cost := o.Cost
				if o.Index != NoIndex {
					if s.fixedOut[o.Index] {
						continue
					}
					cost += s.lam[bi][g]
				}
				if cost < slotBest || cost == slotBest && o.Index < slotIndex {
					slotBest, slotIndex, slotGroup = cost, o.Index, g
				}
			}
			if math.IsInf(slotBest, 1) {
				ok = false
				continue
			}
			v += slotBest
			if slotGroup >= 0 {
				groups = append(groups, slotGroup)
			}
		}
		if ok && v < best {
			best, uses = v, groups
		}
	}
	return best, uses
}

// fullScanPrimal is blockPrimal without the early exit.
func fullScanPrimal(m *Model, bi int, selected []bool) (float64, bool) {
	best := math.Inf(1)
	for _, c := range m.Blocks[bi].Choices {
		v := c.Fixed
		for _, slot := range c.Slots {
			slotBest := math.Inf(1)
			for _, o := range slot {
				if (o.Index == NoIndex || selected[o.Index]) && o.Cost < slotBest {
					slotBest = o.Cost
				}
			}
			v += slotBest
		}
		best = min(best, v)
	}
	return best, !math.IsInf(best, 1)
}

// TestBlockKernelsMatchFullScan holds both block kernels, which stop a
// sorted slot's walk early, to a walk over every option: on models with
// integer γ and λ, where values tie often, under random fixings and
// selections, blockDual returns the full scan's value and winning
// groups, and blockPrimal its value.
func TestBlockKernelsMatchFullScan(t *testing.T) {
	r := rand.New(rand.NewSource(409))
	var sc blockScratch
	across, twice := 0, 0
	for trial := 0; trial < 200; trial++ {
		m := tieModel(r, 1+r.Intn(6), 3+r.Intn(8))
		a, tw := repeats(m)
		across, twice = across+a, twice+tw
		s := newTestSolver(m)
		for round := 0; round < 10; round++ {
			for bi := range s.lam {
				for k := range s.lam[bi] {
					s.lam[bi][k] = float64(max(0, r.Intn(6)-2))
				}
			}
			sel := make([]bool, m.NumIndexes)
			for a := range sel {
				s.fixedOut[a] = r.Intn(4) == 0
				sel[a] = r.Intn(2) == 0
			}
			for bi := range m.Blocks {
				got := s.blockDual(bi, &sc)
				want, uses := fullScanDual(s, bi)
				if math.Float64bits(got) != math.Float64bits(want) || !slices.Equal(sc.uses, uses) {
					t.Fatalf("trial %d round %d block %d: blockDual %v uses %v, full scan %v uses %v",
						trial, round, bi, got, sc.uses, want, uses)
				}
				gotP, okP := m.blockPrimal(bi, sel, &sc)
				wantP, wantOK := fullScanPrimal(m, bi, sel)
				if okP != wantOK || okP && gotP != wantP {
					t.Fatalf("trial %d round %d block %d: blockPrimal (%v, %v), full scan (%v, %v)",
						trial, round, bi, gotP, okP, wantP, wantOK)
				}
			}
		}
	}
	// Coverage: the models must repeat slots across choices, and use an
	// I∅-only slot twice within one choice, or the shared slots of the
	// layout go untested.
	if across < 300 || twice < 100 {
		t.Fatalf("coverage: %d repeated slots, %d choices using an I∅-only slot twice", across, twice)
	}
}

// TestBlockKernelsAllocateNothing pins that evaluating a block, under
// multipliers or under a selection, allocates nothing once a worker's
// scratch has grown to the model's largest block.
func TestBlockKernelsAllocateNothing(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	m := tieModel(r, 24, 12)
	s := newTestSolver(m)
	for bi := range s.lam {
		for k := range s.lam[bi] {
			s.lam[bi][k] = float64(r.Intn(4))
		}
	}
	sel := make([]bool, m.NumIndexes)
	for a := range sel {
		sel[a] = r.Intn(2) == 0
	}
	var sc blockScratch
	evalAll := func() {
		for bi := range m.Blocks {
			s.blockDual(bi, &sc)
			m.blockPrimal(bi, sel, &sc)
		}
	}
	evalAll()
	if n := testing.AllocsPerRun(20, evalAll); n != 0 {
		t.Fatalf("block kernels allocate %v times per pass over %d blocks", n, len(m.Blocks))
	}
}
