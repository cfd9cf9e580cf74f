package catalog

import (
	"fmt"
	"math"
)

// Histogram summarizes a column's value distribution. Values are
// normalized to the unit interval [0,1]: a predicate constant is a
// position in that interval, and range selectivities are fractions of
// rows. Buckets are equi-width in the value domain but carry
// non-uniform row fractions, so Zipf-skewed distributions (the
// tpcdskew generator's z parameter) are represented faithfully.
type Histogram struct {
	// frac[i] is the fraction of rows whose value falls in bucket i,
	// i.e. in [i/len, (i+1)/len). Fractions sum to 1.
	frac []float64
	// cum[i] is the fraction of rows with value < i/len; cum has
	// len(frac)+1 entries with cum[0]=0 and cum[len]=1.
	cum []float64
	// topFrac is the fraction of rows holding the single most frequent
	// value. Used for skew-aware equality selectivity.
	topFrac float64
	// eqSel is the expected selectivity of an equality predicate whose
	// constant is drawn from the data distribution: Σ f_v² over value
	// frequencies f_v.
	eqSel float64
}

// DefaultBuckets is the bucket count used by the histogram builders.
const DefaultBuckets = 64

// NewUniformHistogram builds a histogram for a column whose ndv
// distinct values are uniformly distributed.
func NewUniformHistogram(ndv int) *Histogram {
	return NewZipf(ndv, 0)
}

// NewZipf builds a histogram for a column with ndv distinct values
// whose frequencies follow a Zipf distribution with parameter z ≥ 0:
// the k-th most frequent value has frequency proportional to 1/k^z.
// z = 0 yields the uniform distribution; z = 2 matches the "highly
// skewed" setting of the paper's evaluation. Values are laid out in
// rank order across the unit interval, so low positions of the domain
// are the hot ones — range predicates near 0 are dense, ranges near 1
// sparse, mirroring how tpcdskew permutes values.
func NewZipf(ndv int, z float64) *Histogram {
	if ndv < 1 {
		ndv = 1
	}
	b := DefaultBuckets
	h := &Histogram{frac: make([]float64, b), cum: make([]float64, b+1)}

	// Harmonic normalization H = Σ 1/k^z. For large ndv approximate the
	// tail with an integral to keep construction O(min(ndv, cutoff)).
	const cutoff = 1 << 16
	n := ndv
	exact := n
	if exact > cutoff {
		exact = cutoff
	}
	var head float64
	for k := 1; k <= exact; k++ {
		head += math.Pow(float64(k), -z)
	}
	total := head
	if n > exact {
		total += integralZipfTail(float64(exact), float64(n), z)
	}

	// Distribute value frequencies into buckets by rank position.
	var sumSq float64
	top := 0.0
	if exact >= 1 {
		top = math.Pow(1, -z) / total
	}
	for k := 1; k <= exact; k++ {
		f := math.Pow(float64(k), -z) / total
		pos := (float64(k) - 0.5) / float64(n)
		idx := int(pos * float64(b))
		if idx >= b {
			idx = b - 1
		}
		h.frac[idx] += f
		sumSq += f * f
	}
	if n > exact {
		// Spread the approximated tail mass uniformly over the
		// remaining rank positions.
		tailMass := 1 - head/total
		lo := float64(exact) / float64(n)
		for i := 0; i < b; i++ {
			bl, bh := float64(i)/float64(b), float64(i+1)/float64(b)
			ov := overlap(bl, bh, lo, 1)
			if ov > 0 {
				h.frac[i] += tailMass * ov / (1 - lo)
			}
		}
		avgTailFreq := tailMass / float64(n-exact)
		sumSq += tailMass * avgTailFreq
	}
	// Normalize away floating error and build the CDF.
	var s float64
	for _, f := range h.frac {
		s += f
	}
	for i := range h.frac {
		h.frac[i] /= s
		h.cum[i+1] = h.cum[i] + h.frac[i]
	}
	h.cum[b] = 1
	h.topFrac = top
	h.eqSel = sumSq
	if h.eqSel <= 0 {
		h.eqSel = 1 / float64(n)
	}
	return h
}

// integralZipfTail approximates Σ_{k=a+1..b} k^-z with an integral.
func integralZipfTail(a, b, z float64) float64 {
	if z == 1 {
		return math.Log(b) - math.Log(a)
	}
	return (math.Pow(b, 1-z) - math.Pow(a, 1-z)) / (1 - z)
}

func overlap(a1, a2, b1, b2 float64) float64 {
	lo := math.Max(a1, b1)
	hi := math.Min(a2, b2)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// RangeFrac returns the fraction of rows with normalized value in
// [lo, hi). Arguments outside [0,1] are clamped.
func (h *Histogram) RangeFrac(lo, hi float64) float64 {
	lo = clamp01(lo)
	hi = clamp01(hi)
	if hi <= lo {
		return 0
	}
	return h.cdf(hi) - h.cdf(lo)
}

// LessFrac returns the fraction of rows with value < v.
func (h *Histogram) LessFrac(v float64) float64 { return h.cdf(clamp01(v)) }

// EqFrac returns the expected selectivity of an equality predicate
// whose constant is drawn from the data distribution itself — the
// skew-aware estimate Σ f_v². Under uniform data this equals 1/NDV.
func (h *Histogram) EqFrac() float64 { return h.eqSel }

// EqFracAt returns the selectivity of equality with the value at
// normalized position v, interpolated from the covering bucket. Hot
// positions (near 0 under Zipf layout) yield large selectivities.
func (h *Histogram) EqFracAt(v float64, ndv int) float64 {
	if ndv < 1 {
		ndv = 1
	}
	v = clamp01(v)
	idx := int(v * float64(len(h.frac)))
	if idx >= len(h.frac) {
		idx = len(h.frac) - 1
	}
	valuesPerBucket := float64(ndv) / float64(len(h.frac))
	if valuesPerBucket < 1 {
		valuesPerBucket = 1
	}
	sel := h.frac[idx] / valuesPerBucket
	if sel > 1 {
		sel = 1
	}
	if sel <= 0 {
		sel = 1 / float64(ndv)
	}
	return sel
}

// TopFrac returns the frequency of the most common value.
func (h *Histogram) TopFrac() float64 { return h.topFrac }

// cdf returns the fraction of rows with value < v using linear
// interpolation inside the covering bucket.
func (h *Histogram) cdf(v float64) float64 {
	b := len(h.frac)
	pos := v * float64(b)
	idx := int(pos)
	if idx >= b {
		return 1
	}
	within := pos - float64(idx)
	return h.cum[idx] + h.frac[idx]*within
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// String renders a short summary for debugging.
func (h *Histogram) String() string {
	return fmt.Sprintf("hist{buckets=%d top=%.4f eq=%.6f}", len(h.frac), h.topFrac, h.eqSel)
}
