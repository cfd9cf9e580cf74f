package lagrange

import (
	"math"
	"math/rand"
	"testing"
)

// newTestSolver compiles a model into a bare solver, enough for the
// one-flip evaluation path (incidence lists).
func newTestSolver(m *Model) *solver {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	s := &solver{m: m, attract: make([]float64, m.NumIndexes)}
	s.compile()
	return s
}

// TestIncidenceListsComplete checks that incidence[a] names exactly the
// blocks with an option on index a.
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
			for _, bi := range s.incidence[a] {
				if !want[a][bi] {
					t.Fatalf("trial %d: index %d incidence lists block %d without an option", trial, a, bi)
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
