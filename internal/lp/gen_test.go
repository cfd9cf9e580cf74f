package lp

import "math/rand"

// bipShaped builds a randomized LP with the structure BIPGen
// emits (the explicit Theorem-1 BIP / zPolytopeLP): binary-boxed z
// variables per candidate, per-block choice (y) and option (x) variables tied by
// Σx = y assignment rows and z ≥ x linking rows, a storage-budget
// knapsack over z, and ±1-coefficient side constraints — extreme
// sparsity, a handful of nonzeros per row. With fix set, a few z
// variables are bound-fixed, mimicking branch-and-bound nodes.
func bipShaped(seed int64, nz, blocks, sideRows int, fix bool) *Problem {
	rng := rand.New(rand.NewSource(seed))

	// Count variables: per block 1-2 choices, each with 1-2 slots, each
	// slot with 1-3 options.
	type slot struct{ opts []int } // candidate index per option, -1 = free
	type choice struct{ slots []slot }
	type block struct {
		weight  float64
		choices []choice
	}
	bs := make([]block, blocks)
	ny, nx := 0, 0
	for bi := range bs {
		bs[bi].weight = 1 + rng.Float64()*4
		nch := 1 + rng.Intn(2)
		bs[bi].choices = make([]choice, nch)
		for ci := range bs[bi].choices {
			nsl := 1 + rng.Intn(2)
			sl := make([]slot, nsl)
			for si := range sl {
				nop := 1 + rng.Intn(3)
				for k := 0; k < nop; k++ {
					cand := -1
					if rng.Intn(3) > 0 {
						cand = rng.Intn(nz)
					}
					sl[si].opts = append(sl[si].opts, cand)
				}
			}
			bs[bi].choices[ci].slots = sl
			ny++
			for _, s := range sl {
				nx += len(s.opts)
			}
		}
	}

	p := NewProblem(nz + ny + nx)
	for a := 0; a < nz; a++ {
		p.SetObj(a, rng.Float64()*10) // update-maintenance cost
		p.SetBounds(a, 0, 1)
	}
	yBase, xBase := nz, nz+ny
	yi, xi := 0, 0
	for bi := range bs {
		var yRow []Coef
		w := bs[bi].weight
		for _, ch := range bs[bi].choices {
			yVar := yBase + yi
			yi++
			p.SetObj(yVar, w*(5+rng.Float64()*20)) // β
			p.SetBounds(yVar, 0, 1)
			yRow = append(yRow, Coef{Col: yVar, Val: 1})
			for _, sl := range ch.slots {
				row := []Coef{{Col: yVar, Val: -1}}
				for _, cand := range sl.opts {
					xVar := xBase + xi
					xi++
					p.SetObj(xVar, w*(1+rng.Float64()*10)) // γ
					p.SetBounds(xVar, 0, 1)
					row = append(row, Coef{Col: xVar, Val: 1})
					if cand >= 0 {
						p.AddRow([]Coef{{Col: cand, Val: 1}, {Col: xVar, Val: -1}}, GE, 0)
					}
				}
				p.AddRow(row, EQ, 0)
			}
		}
		p.AddRow(yRow, EQ, 1)
	}

	// Storage budget over z.
	var budget []Coef
	total := 0.0
	for a := 0; a < nz; a++ {
		sz := 1 + rng.Float64()*9
		total += sz
		budget = append(budget, Coef{Col: a, Val: sz})
	}
	p.AddRow(budget, LE, total*(0.3+rng.Float64()*0.5))

	// ±1 side constraints over z (Appendix-E shapes: at-most-k subsets,
	// implications).
	for r := 0; r < sideRows; r++ {
		var row []Coef
		k := 2 + rng.Intn(4)
		for t := 0; t < k; t++ {
			val := 1.0
			if rng.Intn(4) == 0 {
				val = -1
			}
			row = append(row, Coef{Col: rng.Intn(nz), Val: val})
		}
		p.AddRow(row, LE, float64(1+rng.Intn(k)))
	}

	if fix {
		for t := 0; t < 1+rng.Intn(3); t++ {
			a := rng.Intn(nz)
			v := float64(rng.Intn(2))
			p.SetBounds(a, v, v)
		}
	}
	return p
}
