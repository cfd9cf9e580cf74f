package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-size log-linear latency histogram in the
// HdrHistogram mold: each power of two is split into 2^histSubBits
// linear sub-buckets, so any recorded value lands in a bucket whose
// width is at most 1/2^histSubBits (6.25%) of its magnitude. That
// bound is the whole correctness story — any quantile read from the
// histogram is within one bucket width, i.e. within 6.25% relative
// error, of the exact sample quantile (the property test pins this).
//
// Values are int64 (by convention: nanoseconds). The record path is
// three atomic adds and no locks; Snapshot loads each bucket
// atomically, so concurrent Record/Snapshot is race-free by
// construction. A snapshot taken mid-record may miss in-flight
// samples; it never tears a bucket.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits // 16 linear sub-buckets per power of two
	// histBuckets covers the linear region [0, 16) one value per
	// bucket, then 16 sub-buckets for each exponent 4..63:
	// 16 + 60*16 = 976. At nanosecond resolution the top bucket is
	// ~292 years; nothing saturates.
	histBuckets = histSub + (64-histSubBits)*histSub
)

// Histogram records int64 samples. The zero value is not usable; use
// NewHistogram or Registry.Histogram.
type Histogram struct {
	buckets []atomic.Int64
	sum     atomic.Int64
}

// NewHistogram returns an unregistered histogram (registered ones come
// from Registry.Histogram).
func NewHistogram() *Histogram {
	return &Histogram{buckets: make([]atomic.Int64, histBuckets)}
}

// bucketIndex maps a sample to its bucket. Values below histSub get
// exact single-value buckets; above, the top histSubBits+1 significant
// bits select (exponent, sub-bucket).
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	return (e-histSubBits+1)<<histSubBits + int(uint64(v)>>(e-histSubBits)) - histSub
}

// bucketMax returns the largest sample value the bucket holds — the
// conservative (never under-reporting) representative quantiles
// answer with.
func bucketMax(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	e := i>>histSubBits + histSubBits - 1
	sub := int64(i&(histSub-1)) + histSub
	width := int64(1) << (e - histSubBits)
	return sub*width + width - 1
}

// Record adds one sample. Negative samples clamp to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// Observe records a duration in nanoseconds.
func (h *Histogram) Observe(d time.Duration) { h.Record(d.Nanoseconds()) }

// HistSnapshot is a point-in-time copy of a histogram's buckets.
// Count is derived from the copied buckets, so every quantile walk is
// internally consistent even when records land mid-snapshot.
type HistSnapshot struct {
	Count   int64
	Sum     int64
	buckets []int64
}

// Snapshot copies the histogram.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{buckets: make([]int64, len(h.buckets)), Sum: h.sum.Load()}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.buckets[i] = n
		s.Count += n
	}
	return s
}

// Quantile returns the q-quantile (q in [0,1]) of the recorded
// samples: the upper bound of the bucket holding the sample of that
// rank, so the answer is ≥ the exact sample quantile and within one
// bucket width (≤ 6.25% relative) of it. Zero samples answer 0.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for i, n := range s.buckets {
		cum += n
		if cum >= rank {
			return bucketMax(i)
		}
	}
	return bucketMax(len(s.buckets) - 1)
}

// cumLE returns how many samples are provably ≤ bound: the cumulative
// count of buckets whose entire range fits under it. A bucket
// straddling the bound is excluded (pushed to the next exposition
// bound), a ≤6.25% conservative shift — cumulative histograms stay
// monotone and never overclaim.
func (s HistSnapshot) cumLE(bound int64) int64 {
	var cum int64
	for i, n := range s.buckets {
		if n == 0 {
			continue
		}
		if bucketMax(i) <= bound {
			cum += n
		}
	}
	return cum
}
