package lp

// Clone returns a copy of the problem sharing the (immutable)
// constraint rows but with independent objective and bounds, so
// callers can tighten bounds per branch-and-bound node without
// affecting the original. The shared row list is capacity-clipped so a
// later AddRow on either side reallocates instead of writing into a
// backing array the other still reads.
func (p *Problem) Clone() *Problem {
	return &Problem{
		cols: p.cols,
		obj:  append([]float64(nil), p.obj...),
		lo:   append([]float64(nil), p.lo...),
		hi:   append([]float64(nil), p.hi...),
		rows: p.rows[:len(p.rows):len(p.rows)],
	}
}

// rowActivity returns Σ aᵢxᵢ for row i at point x.
func (p *Problem) rowActivity(i int, x []float64) float64 {
	var sum float64
	for _, c := range p.rows[i].coefs {
		sum += c.Val * x[c.Col]
	}
	return sum
}

// Feasible reports whether x satisfies every row and bound within tol,
// in the units the rows were given in.
func (p *Problem) Feasible(x []float64, tol float64) bool {
	for j := 0; j < p.cols; j++ {
		if x[j] < p.lo[j]-tol || x[j] > p.hi[j]+tol {
			return false
		}
	}
	for i, r := range p.rows {
		act := p.rowActivity(i, x)
		switch r.sense {
		case LE:
			if act > r.rhs+tol {
				return false
			}
		case GE:
			if act < r.rhs-tol {
				return false
			}
		case EQ:
			if act < r.rhs-tol || act > r.rhs+tol {
				return false
			}
		}
	}
	return true
}

// Objective returns Obj·x.
func (p *Problem) Objective(x []float64) float64 {
	var sum float64
	for j := 0; j < p.cols; j++ {
		sum += p.obj[j] * x[j]
	}
	return sum
}
