package lagrange

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/lp"
)

// randomBlockModel builds a block-structured model large enough to
// cross the parallel-evaluation threshold; no index repeats within a
// choice.
func randomBlockModel(seed int64, blocks, indexes int) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel(indexes)
	for a := 0; a < indexes; a++ {
		m.FixedCost[a] = rng.Float64() * 4
		m.Size[a] = 1 + rng.Float64()*9
	}
	m.Budget = float64(indexes) * 2.5
	for b := 0; b < blocks; b++ {
		blk := Block{ID: fmt.Sprintf("b%03d", b), Weight: 0.5 + rng.Float64()}
		choices := 1 + rng.Intn(3)
		for c := 0; c < choices; c++ {
			ch := Choice{Fixed: rng.Float64() * 10}
			slots := 1 + rng.Intn(3)
			used := map[int32]bool{}
			for sl := 0; sl < slots; sl++ {
				slot := Slot{{Index: NoIndex, Cost: 5 + rng.Float64()*10}}
				opts := rng.Intn(4)
				for o := 0; o < opts; o++ {
					a := int32(rng.Intn(indexes))
					if used[a] {
						continue
					}
					used[a] = true
					slot = append(slot, Option{Index: a, Cost: rng.Float64() * 5})
				}
				ch.Slots = append(ch.Slots, slot)
			}
			blk.Choices = append(blk.Choices, ch)
		}
		m.Blocks = append(m.Blocks, blk)
	}
	return laidOut(m)
}

// integerBlockModel is randomBlockModel with whole-byte sizes and
// budget, as BIPGen emits them.
func integerBlockModel(seed int64, blocks, indexes int) *Model {
	m := randomBlockModel(seed, blocks, indexes)
	for a := range m.Size {
		m.Size[a] = math.Floor(m.Size[a])
	}
	m.Budget = math.Floor(m.Budget)
	return m
}

// withCostCaps caps every third block at a random point between its
// value with every index and its value with none, so some selections
// violate a cap and some satisfy all of them.
func withCostCaps(m *Model, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	none := make([]bool, m.NumIndexes)
	all := make([]bool, m.NumIndexes)
	for a := range all {
		all[a] = true
	}
	var sc blockScratch
	for bi := range m.Blocks {
		if bi%3 != 0 {
			continue
		}
		lo, _ := m.blockPrimal(bi, all, &sc)
		hi, _ := m.blockPrimal(bi, none, &sc)
		m.Blocks[bi].CostCap = lo + (0.6+0.4*rng.Float64())*(hi-lo)
	}
	return m
}

// TestSolveDeterministicAcrossWorkerCounts asserts the headline
// fixed-seed determinism property: the parallel block fan-outs (block
// duals, and full primal evaluations) with their in-order reductions
// must produce results identical to the serial solver, and identical
// across repeated runs. The cost-capped models send the parallel
// evaluator down its rejection path too.
func TestSolveDeterministicAcrossWorkerCounts(t *testing.T) {
	names := []string{}
	models := map[string]*Model{}
	for _, seed := range []int64{1, 7, 23} {
		plain, capped := fmt.Sprintf("seed %d", seed), fmt.Sprintf("capped seed %d", seed)
		names = append(names, plain, capped)
		models[plain] = randomBlockModel(seed, 40, 30)
		models[capped] = withCostCaps(randomBlockModel(seed, 16+int(seed), 30), seed)
	}
	opts := func(workers int) Options {
		return Options{GapTol: 1e-6, RootIters: 120, MaxNodes: 8, Workers: workers}
	}
	for _, name := range names {
		m := models[name]
		serial := Solve(m, opts(1))
		for _, workers := range []int{2, 4} {
			par := Solve(m, opts(workers))
			if !reflect.DeepEqual(serial.Selected, par.Selected) {
				t.Fatalf("%s: selections differ between 1 and %d workers", name, workers)
			}
			if serial.Objective != par.Objective || serial.Lower != par.Lower ||
				serial.Iters != par.Iters || serial.Nodes != par.Nodes {
				t.Fatalf("%s: result differs between 1 and %d workers: %+v vs %+v",
					name, workers, serial, par)
			}
		}
		again := Solve(m, opts(4))
		if !reflect.DeepEqual(serial.Selected, again.Selected) || serial.Objective != again.Objective {
			t.Fatalf("%s: repeated solve differs", name)
		}
	}
}

// TestSolveDeterministicWithSideConstraints exercises the warm-started
// z-polytope LP path (Extra non-empty) under the same determinism
// contract.
func TestSolveDeterministicWithSideConstraints(t *testing.T) {
	m := randomBlockModel(11, 32, 24)
	m.Extra = append(m.Extra, Constraint{
		Terms: []Term{{Index: 0, Coef: 1}, {Index: 1, Coef: 1}, {Index: 2, Coef: 1}},
		Sense: lp.LE, RHS: 2, Name: "atmost2",
	})
	serial := Solve(m, Options{GapTol: 1e-6, RootIters: 100, MaxNodes: 8, Workers: 1})
	par := Solve(m, Options{GapTol: 1e-6, RootIters: 100, MaxNodes: 8, Workers: 4})
	if !reflect.DeepEqual(serial.Selected, par.Selected) || serial.Objective != par.Objective || serial.Iters != par.Iters {
		t.Fatalf("constrained solve differs between worker counts: %+v vs %+v", serial, par)
	}
	if ok, _ := m.SelectionFeasible(serial.Selected); !ok {
		t.Fatal("solution violates side constraints")
	}
}
