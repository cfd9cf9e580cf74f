package obs

import (
	"context"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// exactQuantile is the reference the histogram is pinned against:
// nearest-rank with the same rounding Quantile uses.
func exactQuantile(sorted []int64, q float64) int64 {
	rank := int(q*float64(len(sorted)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestHistogramQuantileProperty is the histogram's correctness
// contract: for arbitrary sample sets, every quantile the histogram
// reports is ≥ the exact sample quantile and within one bucket's
// relative error (1/16) of it. Distributions are chosen to stress the
// bucket layout: uniform, heavy-tailed exponential-ish, constants,
// and the exact linear region.
func TestHistogramQuantileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gens := map[string]func() int64{
		"uniform":    func() int64 { return rng.Int63n(10_000_000) },
		"heavytail":  func() int64 { return int64(1000 * (1 / (rng.Float64() + 1e-6))) },
		"constant":   func() int64 { return 123_456 },
		"linear":     func() int64 { return rng.Int63n(16) },
		"widespread": func() int64 { return 1 << uint(rng.Intn(40)) },
	}
	quantiles := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				n := 1 + rng.Intn(5000)
				h := NewHistogram()
				samples := make([]int64, n)
				for i := range samples {
					samples[i] = gen()
					h.Record(samples[i])
				}
				sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
				s := h.Snapshot()
				if s.Count != int64(n) {
					t.Fatalf("snapshot count %d, recorded %d", s.Count, n)
				}
				for _, q := range quantiles {
					est := s.Quantile(q)
					exact := exactQuantile(samples, q)
					if est < exact {
						t.Fatalf("q=%v: estimate %d below exact %d", q, est, exact)
					}
					if float64(est-exact) > float64(exact)/16 {
						t.Fatalf("q=%v: estimate %d vs exact %d exceeds one bucket's relative error (n=%d)", q, est, exact, n)
					}
				}
			}
		})
	}
}

// TestHistogramBucketBoundaries pins the index/representative pair:
// every value maps to a bucket whose representative is ≥ it and within
// 1/16 relative.
func TestHistogramBucketBoundaries(t *testing.T) {
	values := []int64{0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 1023, 1024, 1025,
		1<<20 - 1, 1 << 20, 1<<40 + 12345, 1<<62 + 99}
	for _, v := range values {
		i := bucketIndex(v)
		max := bucketMax(i)
		if max < v {
			t.Fatalf("v=%d: bucketMax(%d)=%d below the value", v, i, max)
		}
		if float64(max-v) > float64(v)/16 {
			t.Fatalf("v=%d: bucketMax(%d)=%d exceeds one bucket width", v, i, max)
		}
		if i > 0 && bucketMax(i-1) >= max {
			t.Fatalf("bucketMax not strictly increasing at %d", i)
		}
	}
	if got := bucketIndex(-5); got != 0 {
		t.Fatalf("negative samples must clamp to bucket 0, got %d", got)
	}
}

// TestHistogramConcurrentRecordSnapshot is the -race stress test:
// writers hammer Record while readers snapshot, extract quantiles and
// render the registry, all concurrently.
func TestHistogramConcurrentRecordSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("stress_seconds", "stress histogram")
	c := r.Counter("stress_total", "stress counter")
	var depth atomic.Int64
	r.GaugeFunc("stress_depth", "stress gauge", func() float64 { return float64(depth.Load()) })
	const writers, readers, perWriter = 8, 4, 5000
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				h.Record(rng.Int63n(1_000_000))
				c.Inc()
				depth.Store(int64(i))
			}
		}(int64(wi))
	}
	stop := make(chan struct{})
	for ri := 0; ri < readers; ri++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				if q := s.Quantile(0.95); q < 0 {
					t.Error("negative quantile")
					return
				}
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Concurrent registration of the same series must be idempotent.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r.Counter("stress_total", "stress counter") != c {
				t.Error("re-registration returned a different counter")
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	if got := h.Snapshot().Count; got != writers*perWriter {
		t.Fatalf("lost samples: %d recorded, want %d", got, writers*perWriter)
	}
	if got := c.Load(); got != writers*perWriter {
		t.Fatalf("lost counter increments: %d, want %d", got, writers*perWriter)
	}
}

// TestPrometheusExposition checks the text format: HELP/TYPE pairs,
// labeled samples, cumulative monotone histogram buckets ending in
// +Inf == count, and sums in seconds.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "requests", L("endpoint", "/ingest")).Add(7)
	r.Counter("reqs_total", "requests", L("endpoint", "/whatif")).Add(3)
	r.GaugeFunc("depth", "queue depth", func() float64 { return 2 })
	r.GaugeFunc("live", "live statements", func() float64 { return 41 })
	h := r.Histogram("req_seconds", "request latency", L("endpoint", "/ingest"))
	h.Observe(2 * time.Millisecond)
	h.Observe(40 * time.Millisecond)
	h.Observe(900 * time.Millisecond)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP reqs_total requests\n",
		"# TYPE reqs_total counter\n",
		`reqs_total{endpoint="/ingest"} 7` + "\n",
		`reqs_total{endpoint="/whatif"} 3` + "\n",
		"# TYPE depth gauge\n",
		"depth 2\n",
		"live 41\n",
		"# TYPE req_seconds histogram\n",
		`req_seconds_bucket{endpoint="/ingest",le="+Inf"} 3` + "\n",
		`req_seconds_count{endpoint="/ingest"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative buckets must be monotone and reach the total count.
	var last float64 = -1
	seen := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "req_seconds_bucket") {
			continue
		}
		seen++
		v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("non-monotone cumulative bucket in %q", line)
		}
		last = v
	}
	if seen != len(promBounds)+1 {
		t.Fatalf("want %d bucket lines, got %d", len(promBounds)+1, seen)
	}
	if last != 3 {
		t.Fatalf("+Inf bucket %v, want 3", last)
	}
	// The 2ms sample is ≤ the 2.5ms bound; the 900ms one only under 1s.
	if !strings.Contains(out, `req_seconds_bucket{endpoint="/ingest",le="1"} 3`) {
		t.Fatalf("900ms sample should be cumulative under le=1:\n%s", out)
	}
}

// TestCumLEConservative pins the conservative direction of the
// /metrics bucket counts: a bucket straddling the bound counts as
// above it, never as ≤ bound.
func TestCumLEConservative(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{10, 100, 1000, 10_000} {
		h.Record(v)
	}
	s := h.Snapshot()
	// 10_000 sits in a straddling bucket (its bucketMax > 10_000), so
	// the conservative rule leaves it out of its own value's count.
	want := int64(4)
	if bucketMax(bucketIndex(10_000)) > 10_000 {
		want = 3
	}
	if got := s.cumLE(10_000); got != want {
		t.Fatalf("cumLE(10000)=%d, want %d", got, want)
	}
	if got := s.cumLE(0); got != 0 {
		t.Fatalf("cumLE(0)=%d, want 0", got)
	}
	if got := s.cumLE(1 << 40); got != 4 {
		t.Fatalf("cumLE(huge)=%d, want 4", got)
	}
	// Values in the exact linear region: the bound is sharp.
	h2 := NewHistogram()
	for v := int64(0); v < 16; v++ {
		h2.Record(v)
	}
	s2 := h2.Snapshot()
	if got := s2.cumLE(7); got != 8 {
		t.Fatalf("linear cumLE(7)=%d, want 8", got)
	}
}

// TestLabelEscaping pins exposition-format escaping of label values.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "c", L("q", `say "hi"`+"\n")).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `c_total{q="say \"hi\"\n"} 1`; !strings.Contains(sb.String(), want) {
		t.Fatalf("missing %q in:\n%s", want, sb.String())
	}
}

// TestRegistryKindConflict: one name, two kinds → panic (programming
// error made loud).
func TestRegistryKindConflict(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind conflict")
		}
	}()
	r := NewRegistry()
	r.Counter("x", "x")
	r.GaugeFunc("x", "x", func() float64 { return 0 })
}

// TestTraceSpans covers accumulation, ordering, counts and the
// context round-trip, including nil safety at every call site shape
// the solver layers use.
func TestTraceSpans(t *testing.T) {
	tr := NewTrace()
	if len(tr.ID) != 16 {
		t.Fatalf("trace ID %q, want 16 hex chars", tr.ID)
	}
	tr.Add("lp.phase1", 5*time.Millisecond)
	tr.Add("lp.phase1", 7*time.Millisecond)
	tr.Add("lp.phase2", 2*time.Millisecond)
	done := tr.StartSpan("solve")
	time.Sleep(time.Millisecond)
	done()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("want 3 spans, got %+v", spans)
	}
	if spans[0].Name != "lp.phase1" || spans[0].Dur != 12*time.Millisecond || spans[0].Count != 2 {
		t.Fatalf("phase1 span wrong: %+v", spans[0])
	}
	if spans[1].Name != "lp.phase2" || spans[1].Count != 1 {
		t.Fatalf("phase2 span wrong: %+v", spans[1])
	}
	if spans[2].Name != "solve" || spans[2].Dur <= 0 {
		t.Fatalf("solve span wrong: %+v", spans[2])
	}
	if tr.Dur("lp.phase1") != 12*time.Millisecond {
		t.Fatalf("Dur lookup wrong")
	}

	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("context round-trip lost the trace")
	}
	if TraceFrom(context.Background()) != nil || TraceFrom(nil) != nil {
		t.Fatal("absent trace must be nil")
	}

	// Nil trace: every method is a no-op, no panic.
	var nilT *Trace
	nilT.Add("x", time.Second)
	nilT.StartSpan("x")()
	if nilT.Spans() != nil || nilT.Dur("x") != 0 {
		t.Fatal("nil trace must report nothing")
	}
}

// TestTraceIDsUnique: IDs must not collide across mints.
func TestTraceIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTrace().ID
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}
