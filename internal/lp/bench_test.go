package lp

import "testing"

// BenchmarkSolveSparseVsDense pits the revised simplex against the
// dense tableau oracle on identical BIP-shaped instances (the shared
// BenchBIPShapes families). The acceptance bar is ≥3× on the
// constraint-rich shape.
func BenchmarkSolveSparseVsDense(b *testing.B) {
	for _, sh := range BenchBIPShapes {
		var probs []*Problem
		for seed := int64(0); seed < 8; seed++ {
			probs = append(probs, bipShaped(seed, sh.NZ, sh.Blocks, sh.Side, false))
		}
		b.Run(sh.Name+"/Sparse", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Solve(probs[i%len(probs)])
			}
		})
		b.Run(sh.Name+"/Dense", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SolveDense(probs[i%len(probs)])
			}
		})
	}
}

// BenchmarkWarmSolve measures the warm-start path the upper layers
// lean on: re-solving after a single bound flip (branch-and-bound
// child) with and without the parent basis.
func BenchmarkWarmSolve(b *testing.B) {
	p := bipShaped(7, 24, 12, 24, false)
	root := Solve(p)
	if root.Status != Optimal {
		b.Fatal("root not optimal")
	}
	child := p.Clone()
	child.SetBounds(0, 1, 1)
	b.Run("Cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Solve(child)
		}
	})
	b.Run("WarmFactorShared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SolveFrom(child, root.Basis)
		}
	})
}
