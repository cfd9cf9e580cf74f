package lp

import "testing"

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
	b.Run("Warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SolveFrom(child, root.Basis)
		}
	})
}
