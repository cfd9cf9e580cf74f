package lagrange

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/lp"
)

// newTestSolver compiles a model into a solver with no incumbent and
// zero multipliers, as Solve does before its first iteration.
func newTestSolver(m *Model) *solver {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return newSolver(m, Options{GapTol: 1e-9, RootIters: 60, NodeIters: 6, Workers: 2})
}

// TestIncidenceListsComplete checks that incidence[a] names exactly the
// blocks with an option on index a, ascending, each with a's group.
func TestIncidenceListsComplete(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 20; trial++ {
		m := randomModel(r, 5+r.Intn(5), 3+r.Intn(5), 0)
		s := newTestSolver(m)
		want := make([]map[int32]bool, m.NumIndexes)
		for a := range want {
			want[a] = map[int32]bool{}
		}
		for bi := range m.Blocks {
			for _, c := range m.Blocks[bi].Choices {
				for _, slot := range c.Slots {
					for _, o := range slot {
						if o.Index != NoIndex {
							want[o.Index][int32(bi)] = true
						}
					}
				}
			}
		}
		for a := range want {
			if len(s.incidence[a]) != len(want[a]) {
				t.Fatalf("trial %d: index %d incidence %v, want %d blocks", trial, a, s.incidence[a], len(want[a]))
			}
			for i, e := range s.incidence[a] {
				if !want[a][e.block] {
					t.Fatalf("trial %d: index %d incidence lists block %d without an option", trial, a, e.block)
				}
				if i > 0 && s.incidence[a][i-1].block >= e.block {
					t.Fatalf("trial %d: index %d incidence %v not ascending", trial, a, s.incidence[a])
				}
				if s.groupIdx[e.block][e.group] != int32(a) {
					t.Fatalf("trial %d: index %d incidence names group %d of block %d, which is index %d",
						trial, a, e.group, e.block, s.groupIdx[e.block][e.group])
				}
			}
		}
	}
}

// TestFlipObjectiveMatchesFullEvaluation is the pin for the
// incremental path: for random models (with and without per-block cost
// caps) and random selections, every one-flip objective must agree
// with the full re-evaluation of the flipped selection — value and
// feasibility verdict alike — and a committed flip must reproduce the
// full evaluation bit-for-bit.
func TestFlipObjectiveMatchesFullEvaluation(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	for trial := 0; trial < 40; trial++ {
		m := randomModel(r, 5+r.Intn(6), 3+r.Intn(6), 0)
		if trial%2 == 1 {
			// Cost-cap a few blocks so the cap-rejection branch of the
			// incremental path is exercised.
			for bi := range m.Blocks {
				if r.Intn(3) == 0 {
					m.Blocks[bi].CostCap = 60 + r.Float64()*120
				}
			}
		}
		s := newTestSolver(m)

		sel := make([]bool, m.NumIndexes)
		for a := range sel {
			sel[a] = r.Intn(2) == 0
		}
		st, stOK := s.newIncState(sel)
		fullBase, fullOK := m.Evaluate(sel)
		if stOK != fullOK {
			t.Fatalf("trial %d: base feasibility differs: inc=%v full=%v", trial, stOK, fullOK)
		}
		if !stOK {
			continue
		}
		if st.total != fullBase {
			t.Fatalf("trial %d: base objective differs: %v vs %v", trial, st.total, fullBase)
		}

		for a := 0; a < m.NumIndexes; a++ {
			trialSel := append([]bool(nil), sel...)
			trialSel[a] = !trialSel[a]
			wantObj, wantOK := m.Evaluate(trialSel)
			gotObj, gotOK := s.flipObjective(st, a)
			if gotOK != wantOK {
				t.Fatalf("trial %d flip %d: feasibility differs: inc=%v full=%v", trial, a, gotOK, wantOK)
			}
			if !gotOK {
				continue
			}
			if math.Abs(gotObj-wantObj) > 1e-9*math.Max(1, math.Abs(wantObj)) {
				t.Fatalf("trial %d flip %d: objective %v, full evaluation %v", trial, a, gotObj, wantObj)
			}
		}

		// Commit a random feasible flip and require bit-equality with
		// the from-scratch evaluation.
		perm := r.Perm(m.NumIndexes)
		for _, a := range perm {
			if _, ok := s.flipObjective(st, a); !ok {
				continue
			}
			s.commitFlip(st, a)
			sel[a] = !sel[a]
			want, _ := m.Evaluate(sel)
			if st.total != want {
				t.Fatalf("trial %d: committed flip of %d drifted: %v vs %v", trial, a, st.total, want)
			}
			break
		}
	}
}

// withSideRows adds integer side constraints of every sense to m: an
// at-most count row, an at-least count row, an exactly-one row and a
// byte row.
func withSideRows(m *Model, r *rand.Rand) *Model {
	pick := func(k int) []int {
		return r.Perm(m.NumIndexes)[:k]
	}
	atMost := Constraint{Sense: lp.LE, RHS: float64(1 + r.Intn(4)), Name: "at-most"}
	for _, a := range pick(m.NumIndexes / 2) {
		atMost.Terms = append(atMost.Terms, Term{int32(a), 1})
	}
	atLeast := Constraint{Sense: lp.GE, RHS: 1, Name: "at-least"}
	for _, a := range pick(m.NumIndexes / 3) {
		atLeast.Terms = append(atLeast.Terms, Term{int32(a), 1})
	}
	exactlyOne := Constraint{Sense: lp.EQ, RHS: 1, Name: "exactly-one"}
	for _, a := range pick(3) {
		exactlyOne.Terms = append(exactlyOne.Terms, Term{int32(a), 1})
	}
	bytes := Constraint{Sense: lp.LE, Name: "bytes"}
	for _, a := range pick(m.NumIndexes / 2) {
		bytes.Terms = append(bytes.Terms, Term{int32(a), m.Size[a]})
		bytes.RHS += m.Size[a]
	}
	bytes.RHS = math.Floor(bytes.RHS / 3)
	m.Extra = []Constraint{atMost, atLeast, exactlyOne, bytes}
	return m
}

// perturb moves the solver the way a solve does between heuristics
// calls: new multipliers (so new scores), and fixings set and released.
func perturb(s *solver, r *rand.Rand) {
	for a := range s.attract {
		s.attract[a] = r.Float64() * 12
	}
	for a := range s.fixedIn {
		s.fixedIn[a], s.fixedOut[a] = false, false
		switch r.Intn(10) {
		case 0:
			s.fixedIn[a] = true
		case 1:
			s.fixedOut[a] = true
		}
	}
}

// TestIncumbentStateAfterHeuristics pins the incumbent's cached state:
// after every heuristics call it equals a from-scratch evaluation of
// bestSel bit for bit, and each memoised one-flip outcome is the one a
// fresh trial against the incumbent reaches.
func TestIncumbentStateAfterHeuristics(t *testing.T) {
	for seed := int64(1); seed <= 9; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := integerBlockModel(seed, 24, 20)
		switch seed % 3 {
		case 1:
			withCostCaps(m, seed)
		case 2:
			withSideRows(m, r)
		}
		s := newTestSolver(m)
		for round := 0; round < 40; round++ {
			if round%4 == 3 {
				s.subgradient(7, false) // real multipliers, heuristics at its first and last iteration
			} else {
				perturb(s, r)
			}
			zf := make([]float64, m.NumIndexes)
			for a := range zf {
				zf[a] = r.Float64()
			}
			s.heuristics(zf)
			checkIncumbentState(t, s, seed, round)
		}
	}
}

// TestPricedTotalsMatchEvaluate pins tryCandidate's per-solve memo:
// after heuristics under shifting multipliers and fixings, every stored
// total is Model.Evaluate's for that selection, bit for bit, and +Inf
// exactly when the selection breaks the budget, a side row or a cost
// cap.
func TestPricedTotalsMatchEvaluate(t *testing.T) {
	finite := 0
	for seed := int64(1); seed <= 9; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := integerBlockModel(seed, 24, 20)
		switch seed % 3 {
		case 1:
			withCostCaps(m, seed)
		case 2:
			withSideRows(m, r)
		}
		s := newTestSolver(m)
		for round := 0; round < 20; round++ {
			if round%4 == 3 {
				s.subgradient(7, false)
			} else {
				perturb(s, r)
			}
			zf := make([]float64, m.NumIndexes)
			for a := range zf {
				zf[a] = r.Float64()
			}
			s.heuristics(zf)
		}
		for key, total := range s.priced {
			sel := make([]bool, m.NumIndexes)
			for a := range sel {
				sel[a] = key[a>>3]&(1<<(a&7)) != 0
			}
			if selectionKey(sel) != key {
				t.Fatalf("seed %d: key %x does not round-trip", seed, key)
			}
			want, ok := m.Evaluate(sel)
			if feasible, _ := m.SelectionFeasible(sel); !feasible || !ok {
				want = math.Inf(1)
			}
			if math.Float64bits(total) != math.Float64bits(want) {
				t.Fatalf("seed %d: selection %v stored %v, Evaluate gives %v", seed, sel, total, want)
			}
			if !math.IsInf(total, 1) {
				finite++
			}
		}
	}
	if finite == 0 {
		t.Fatal("no priced selection was feasible: the memo's totals go untested")
	}
}

func checkIncumbentState(t *testing.T, s *solver, seed int64, round int) {
	t.Helper()
	if s.bestSel == nil {
		if s.inc != nil {
			t.Fatalf("seed %d round %d: cached state without an incumbent", seed, round)
		}
		return
	}
	fresh, ok := s.newIncState(s.bestSel)
	if !ok {
		t.Fatalf("seed %d round %d: incumbent not evaluable", seed, round)
	}
	st := s.inc
	if !slices.Equal(st.sel, fresh.sel) {
		t.Fatalf("seed %d round %d: cached selection is not the incumbent", seed, round)
	}
	for bi := range fresh.blockVal {
		if math.Float64bits(st.blockVal[bi]) != math.Float64bits(fresh.blockVal[bi]) {
			t.Fatalf("seed %d round %d: block %d cached %v, fresh %v", seed, round, bi, st.blockVal[bi], fresh.blockVal[bi])
		}
	}
	if math.Float64bits(st.total) != math.Float64bits(fresh.total) || s.bestObj != fresh.total {
		t.Fatalf("seed %d round %d: cached total %v, incumbent %v, fresh %v", seed, round, st.total, s.bestObj, fresh.total)
	}
	for a, memo := range st.flip {
		if memo == flipUntried {
			continue
		}
		want := flipUntried // an improving flip: never memoised
		fresh.sel[a] = !fresh.sel[a]
		feasible, _ := s.m.SelectionFeasible(fresh.sel)
		fresh.sel[a] = !fresh.sel[a]
		if !feasible {
			want = flipInfeasible
		} else if obj, ok := s.flipObjective(fresh, a); !ok || obj >= s.bestObj-1e-9 {
			want = flipRejected
		}
		if memo != want {
			t.Fatalf("seed %d round %d: index %d memoised %d, a fresh trial gives %d", seed, round, a, memo, want)
		}
	}
}

// localSearchReference is localSearch without the memo: the incumbent
// is evaluated afresh and every trial is priced.
func localSearchReference(s *solver) {
	st, _ := s.newIncState(s.bestSel)
	evals := 0
	try := func(a int) bool {
		st.sel[a] = !st.sel[a]
		feasible, _ := s.m.SelectionFeasible(st.sel)
		st.sel[a] = !st.sel[a]
		if !feasible {
			return false
		}
		evals++
		if obj, ok := s.flipObjective(st, a); !ok || obj >= s.bestObj-1e-9 {
			return false
		}
		s.commitFlip(st, a)
		s.setIncumbent(st)
		return true
	}
	for improved := true; improved && evals < localSearchBudget; {
		improved = false
		var drop, add []int
		for a, on := range st.sel {
			if on && !s.fixedIn[a] {
				drop = append(drop, a)
			}
		}
		sort.Slice(drop, func(i, j int) bool { return s.score(drop[i]) < s.score(drop[j]) })
		for _, a := range drop {
			if evals >= localSearchBudget {
				return
			}
			if improved = try(a); improved {
				break
			}
		}
		for a, on := range st.sel {
			if !on && !s.fixedOut[a] && s.score(a) > 0 {
				add = append(add, a)
			}
		}
		sort.Slice(add, func(i, j int) bool { return s.score(add[i]) > s.score(add[j]) })
		for _, a := range add[:min(len(add), 8)] {
			if evals >= localSearchBudget {
				return
			}
			if try(a) {
				improved = true
				break
			}
		}
	}
}

// TestLocalSearchMatchesReference drives two solvers through the same
// multipliers and fixings, one local-searching with the memo and one
// without, and requires the same incumbent after every call: replaying
// a memoised outcome, counted as it was when priced, must not move the
// search.
func TestLocalSearchMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		m := integerBlockModel(seed, 24, 40)
		if seed%3 == 1 {
			withCostCaps(m, seed)
		}
		memo, ref := newTestSolver(m), newTestSolver(m)
		r := rand.New(rand.NewSource(seed))
		for round := 0; round < 40; round++ {
			perturb(memo, r)
			copy(ref.attract, memo.attract)
			copy(ref.fixedIn, memo.fixedIn)
			copy(ref.fixedOut, memo.fixedOut)
			sel := make([]bool, m.NumIndexes)
			for a := range sel {
				sel[a] = r.Intn(3) == 0
			}
			memo.tryCandidate(slices.Clone(sel))
			ref.tryCandidate(sel)
			if memo.bestSel == nil {
				continue
			}
			memo.localSearch()
			localSearchReference(ref)
			if !slices.Equal(memo.bestSel, ref.bestSel) || memo.bestObj != ref.bestObj {
				t.Fatalf("seed %d round %d: memoised search reached %v, reference %v", seed, round, memo.bestObj, ref.bestObj)
			}
		}
	}
}

// greedyReference is greedyByScore with one SelectionFeasible pass per
// candidate, the oracle its running totals must reproduce.
func greedyReference(s *solver) []bool {
	m := s.m
	var order []int
	for a := 0; a < m.NumIndexes; a++ {
		if !s.fixedOut[a] && (s.score(a) > 0 || s.fixedIn[a]) {
			order = append(order, a)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		ai, aj := order[i], order[j]
		if s.fixedIn[ai] != s.fixedIn[aj] {
			return s.fixedIn[ai]
		}
		return s.score(ai)/math.Max(m.Size[ai], 1) > s.score(aj)/math.Max(m.Size[aj], 1)
	})
	sel := make([]bool, m.NumIndexes)
	for _, a := range order {
		sel[a] = true
		if ok, _ := m.SelectionFeasible(sel); !ok && !s.fixedIn[a] {
			sel[a] = false
		}
	}
	return sel
}

// TestGreedyMatchesReference pins greedyByScore's running feasibility
// totals to per-candidate SelectionFeasible calls on whole-number
// models with at-most, at-least, exactly-one and byte rows, under
// fixings that include mandatory indexes breaking the rows.
func TestGreedyMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := integerBlockModel(seed, 20, 16+int(seed%8))
		if seed%5 != 0 {
			withSideRows(m, r)
		}
		s := newTestSolver(m)
		for round := 0; round < 20; round++ {
			perturb(s, r)
			if got, want := s.greedyByScore(), greedyReference(s); !slices.Equal(got, want) {
				t.Fatalf("seed %d round %d: greedy %v, reference %v", seed, round, got, want)
			}
		}
	}
}

// BenchmarkOneFlipTrial contrasts the incremental one-flip pricing
// against the full evaluation it replaces, on a model whose indexes
// each touch a small fraction of the blocks.
func BenchmarkOneFlipTrial(b *testing.B) {
	m := randomBlockModel(7, 400, 120)
	s := newTestSolver(m)
	sel := make([]bool, m.NumIndexes)
	r := rand.New(rand.NewSource(9))
	for a := range sel {
		sel[a] = r.Intn(2) == 0
	}
	st, ok := s.newIncState(sel)
	if !ok {
		b.Fatal("base selection not evaluable")
	}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := i % m.NumIndexes
			if _, ok := s.flipObjective(st, a); !ok {
				b.Fatal("flip infeasible")
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		trial := append([]bool(nil), sel...)
		for i := 0; i < b.N; i++ {
			a := i % m.NumIndexes
			trial[a] = !trial[a]
			if _, ok := m.Evaluate(trial); !ok {
				b.Fatal("flip infeasible")
			}
			trial[a] = !trial[a]
		}
	})
}
