package lagrange

import (
	"math"
	"math/rand"
	"testing"
)

// denseMark returns the λ-step mark of the dense reference, sized to
// the largest block and all false.
func denseMark(s *solver) []bool {
	n := 0
	for _, groupIdx := range s.groupIdx {
		n = max(n, len(groupIdx))
	}
	return make([]bool, n)
}

// denseStepNorm is the λ step's norm pass as a walk over every group of
// every block, x read from a mark set from the block's winning groups:
// the reference stepNorm must reproduce bit for bit.
func denseStepNorm(s *solver, zf []float64) float64 {
	mark := denseMark(s)
	norm := 0.0
	for bi := range s.m.Blocks {
		wt := s.m.Blocks[bi].Weight
		lam := s.lam[bi]
		for _, k := range s.blockUses[bi] {
			mark[k] = true
		}
		for k, id := range s.groupIdx[bi] {
			var g float64
			if mark[k] {
				g = wt * (1 - zf[id])
			} else if zf[id] > 0 || lam[k] > 0 {
				g = -wt * zf[id]
			} else {
				continue
			}
			norm += g * g
		}
		for _, k := range s.blockUses[bi] {
			mark[k] = false
		}
	}
	return norm
}

// denseStepLambda is the λ step's update pass over every group, the
// reference for stepLambda.
func denseStepLambda(s *solver, zf []float64, step float64) {
	mark := denseMark(s)
	for bi := range s.m.Blocks {
		wt := s.m.Blocks[bi].Weight
		lam := s.lam[bi]
		for _, k := range s.blockUses[bi] {
			mark[k] = true
		}
		for k, id := range s.groupIdx[bi] {
			var g float64
			if mark[k] {
				g = wt * (1 - zf[id])
			} else if zf[id] > 0 || lam[k] > 0 {
				g = -wt * zf[id]
			} else {
				continue
			}
			nv := lam[k] + step*g
			if nv < 0 {
				nv = 0
			}
			s.attract[id] += wt * (nv - lam[k])
			lam[k] = nv
		}
		for _, k := range s.blockUses[bi] {
			mark[k] = false
		}
	}
}

// randomLambda gives both solvers the same multipliers: a quarter of
// the blocks priced so high that their winning choice uses no index,
// the rest a mix of zero and positive groups, with attract summed to
// match.
func randomLambda(s, ref *solver, r *rand.Rand) {
	clear(s.attract)
	for bi, lam := range s.lam {
		high := r.Intn(4) == 0
		for k := range lam {
			switch {
			case high:
				lam[k] = 100 + r.Float64()
			case r.Intn(2) == 0:
				lam[k] = 0
			default:
				lam[k] = r.Float64() * 3
			}
			s.attract[s.groupIdx[bi][k]] += s.m.Blocks[bi].Weight * lam[k]
		}
		copy(ref.lam[bi], lam)
	}
	copy(ref.attract, s.attract)
}

// handZ is a z point with exact zeros and ones, fractions and the tiny
// negatives LP round-off leaves.
func handZ(n int, r *rand.Rand) []float64 {
	z := make([]float64, n)
	for a := range z {
		switch r.Intn(4) {
		case 1:
			z[a] = 1
		case 2:
			z[a] = r.Float64()
		case 3:
			z[a] = -r.Float64() * 1e-9
		}
	}
	return z
}

// TestLambdaStepMatchesDense drives two solvers through the same
// multipliers, fixings, block duals and z points, one stepping only the
// groups collectMoves lists and one walking every group, and requires
// the same norm, multipliers and attract to the last bit after every
// step. Budget-only, side-constrained (z from the LP) and cost-capped
// models are covered, with z from the subproblem and set by hand.
func TestLambdaStepMatchesDense(t *testing.T) {
	var idleBlocks, negatives int
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := integerBlockModel(seed, 30, 24)
		switch seed % 3 {
		case 1:
			withSideRows(m, r)
		case 2:
			withCostCaps(m, seed)
		}
		s, ref := newTestSolver(m), newTestSolver(m)
		for round := 0; round < 30; round++ {
			if round%3 == 0 {
				randomLambda(s, ref, r)
				for a := range s.fixedIn {
					s.fixedIn[a], s.fixedOut[a] = false, false
					switch r.Intn(8) {
					case 0:
						s.fixedIn[a] = true
					case 1:
						s.fixedOut[a] = true
					}
				}
				copy(ref.fixedIn, s.fixedIn)
				copy(ref.fixedOut, s.fixedOut)
			}
			s.evalBlocks()
			ref.evalBlocks()
			for _, uses := range s.blockUses {
				if len(uses) == 0 {
					idleBlocks++
				}
			}

			var zf []float64
			if round%2 == 0 {
				_, zf = s.zSubproblem()
			}
			if zf == nil {
				zf = handZ(m.NumIndexes, r)
			}
			for _, z := range zf {
				if z < 0 {
					negatives++
				}
			}

			got, want := s.stepNorm(zf), denseStepNorm(ref, zf)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d round %d: norm %v, dense %v", seed, round, got, want)
			}
			step := (1 + 20*r.Float64()) / math.Max(want, 1e-12)
			s.stepLambda(zf, step)
			denseStepLambda(ref, zf, step)
			for bi, lam := range s.lam {
				for k, v := range lam {
					if math.Float64bits(v) != math.Float64bits(ref.lam[bi][k]) {
						t.Fatalf("seed %d round %d: block %d group %d λ %v, dense %v", seed, round, bi, k, v, ref.lam[bi][k])
					}
				}
			}
			for a, v := range s.attract {
				if math.Float64bits(v) != math.Float64bits(ref.attract[a]) {
					t.Fatalf("seed %d round %d: attract[%d] %v, dense %v", seed, round, a, v, ref.attract[a])
				}
			}
		}
	}
	if idleBlocks == 0 || negatives == 0 {
		t.Fatalf("coverage: %d blocks without an index in their winning choice, %d negative z entries", idleBlocks, negatives)
	}
}
