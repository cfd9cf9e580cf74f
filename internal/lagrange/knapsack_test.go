package lagrange

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// knapsackSolver is a solver carrying only what fractionalKnapsack
// reads: the model's sizes and budget, the fixings and the z buffer.
func knapsackSolver(size []float64, budget float64) *solver {
	n := len(size)
	return &solver{
		m:        &Model{NumIndexes: n, FixedCost: make([]float64, n), Size: size, Budget: budget},
		fixedIn:  make([]bool, n),
		fixedOut: make([]bool, n),
		z:        make([]float64, n),
	}
}

// sortedKnapsack is the reference fractionalKnapsack must reproduce bit
// for bit: the same arithmetic over every candidate sorted in full by
// (density, index).
func sortedKnapsack(s *solver, rc []float64) (float64, []float64) {
	m := s.m
	z := make([]float64, m.NumIndexes)
	budget := m.Budget
	unlimited := budget < 0
	val := 0.0
	for a := range z {
		if s.fixedIn[a] {
			z[a] = 1
			val += rc[a]
			if !unlimited {
				budget -= m.Size[a]
			}
		}
	}
	if !unlimited && budget < 0 {
		return math.Inf(1), nil
	}
	var items []knapItem
	for a := range z {
		if s.fixedIn[a] || s.fixedOut[a] || rc[a] >= 0 {
			continue
		}
		if sz := m.Size[a]; sz <= 0 {
			z[a] = 1
			val += rc[a]
		} else {
			items = append(items, knapItem{a, rc[a] / sz})
		}
	}
	if unlimited {
		for _, it := range items {
			z[it.a] = 1
			val += rc[it.a]
		}
		return val, z
	}
	slices.SortFunc(items, func(x, y knapItem) int {
		if c := cmp.Compare(x.density, y.density); c != 0 {
			return c
		}
		return cmp.Compare(x.a, y.a)
	})
	for _, it := range items {
		if budget <= 0 {
			break
		}
		sz := m.Size[it.a]
		if sz <= budget {
			z[it.a] = 1
			val += rc[it.a]
			budget -= sz
		} else {
			f := budget / sz
			z[it.a] = f
			val += rc[it.a] * f
			budget = 0
		}
	}
	return val, z
}

// TestKnapsackMatchesSortedReference holds the heap-ordered knapsack to
// a full sort by (density, index): the same value and point, bit for
// bit. Densities are drawn from a few dyadic values times whole sizes,
// so many items tie exactly and the budget often binds inside a run of
// ties; sizes include zero, some indexes are fixed in or out, and the
// budget is unlimited, zero (so any fixed-in size exceeds it) or binding.
// Each solver is reused across draws, as the subgradient loop reuses its
// item buffer.
func TestKnapsackMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	overBudget, tiedFraction := 0, 0
	for _, n := range []int{0, 1, 2, 7, 40, 300, 3000} {
		for trial := 0; trial < 12; trial++ {
			size := make([]float64, n)
			for a := range size {
				if rng.Intn(10) > 0 {
					size[a] = float64(1 + rng.Intn(64))
				}
			}
			s := knapsackSolver(size, -1)
			total := 0.0
			for _, sz := range size {
				total += sz
			}
			for draw := 0; draw < 6; draw++ {
				rc := make([]float64, n)
				for a := range rc {
					d := -float64(rng.Intn(4)) / 8 // a few exact densities, some of them 0
					if rng.Intn(4) == 0 {
						d = rng.NormFloat64()
					}
					rc[a] = d * max(size[a], 1)
				}
				for a := range s.fixedIn {
					r := rng.Intn(20)
					s.fixedIn[a], s.fixedOut[a] = r == 0, r == 1
				}
				switch draw {
				case 0:
					s.m.Budget = -1 // unlimited
				case 1:
					s.m.Budget = 0
				default:
					s.m.Budget = math.Floor(rng.Float64() * total / 2)
				}
				wantVal, wantZ := sortedKnapsack(s, rc)
				gotVal, gotZ := s.fractionalKnapsack(rc)
				if math.Float64bits(gotVal) != math.Float64bits(wantVal) {
					t.Fatalf("n=%d trial %d draw %d budget %g: value %v, reference %v", n, trial, draw, s.m.Budget, gotVal, wantVal)
				}
				if (gotZ == nil) != (wantZ == nil) {
					t.Fatalf("n=%d trial %d draw %d: point nil %v, reference nil %v", n, trial, draw, gotZ == nil, wantZ == nil)
				}
				if wantZ == nil {
					overBudget++
				}
				for a := range wantZ {
					if math.Float64bits(gotZ[a]) != math.Float64bits(wantZ[a]) {
						t.Fatalf("n=%d trial %d draw %d: z[%d] = %v, reference %v", n, trial, draw, a, gotZ[a], wantZ[a])
					}
					if wantZ[a] > 0 && wantZ[a] < 1 && hasTwin(s, rc, a) {
						tiedFraction++
					}
				}
			}
		}
	}
	if overBudget == 0 || tiedFraction == 0 {
		t.Fatalf("draws cover %d over-budget fixings and %d fractional items with a tied twin; want both > 0", overBudget, tiedFraction)
	}
}

// hasTwin reports whether another free candidate has a's exact density,
// so that only the (density, index) rule decides which of them is cut.
func hasTwin(s *solver, rc []float64, a int) bool {
	for b := range rc {
		if b != a && !s.fixedIn[b] && !s.fixedOut[b] && s.m.Size[b] > 0 && rc[b]/s.m.Size[b] == rc[a]/s.m.Size[a] {
			return true
		}
	}
	return false
}

// BenchmarkFractionalKnapsack times one z subproblem at het-500 size:
// 3 000 indexes, about 2 000 of them with a negative reduced cost, and a
// budget that binds after a few dozen items, as on the budget-only path
// of every subgradient iteration there.
func BenchmarkFractionalKnapsack(b *testing.B) {
	const n = 3000
	rng := rand.New(rand.NewSource(500))
	size := make([]float64, n)
	for a := range size {
		size[a] = float64(1 + rng.Intn(1<<20))
	}
	rc := make([]float64, n)
	var order []knapItem
	for a := range rc {
		if rng.Intn(3) == 0 {
			rc[a] = rng.Float64() * 1e3
		} else {
			rc[a] = -rng.ExpFloat64() * 1e3
			order = append(order, knapItem{a, rc[a] / size[a]})
		}
	}
	// The budget takes the 30 densest items whole and half of the 31st.
	slices.SortFunc(order, func(x, y knapItem) int { return cmp.Compare(x.density, y.density) })
	budget := size[order[30].a] / 2
	for _, it := range order[:30] {
		budget += size[it.a]
	}
	s := knapsackSolver(size, budget)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.fractionalKnapsack(rc)
	}
}
