// Package obs is the daemon's zero-dependency observability core: a
// metrics registry (atomic counters, gauges and log-linear latency
// histograms with quantile extraction) rendered in the Prometheus text
// exposition format, plus lightweight per-request tracing (a trace ID
// minted per HTTP request, propagated via context.Context, with named
// span timings accumulated along the way).
//
// Design constraints, in order: safe under -race with no lock on the
// record path (metric mutation is pure atomics; the registry mutex
// guards only registration and exposition), no dependencies beyond the
// standard library, and a single source of truth — the daemon's /stats
// counters and /metrics series read the same registered values, so the
// two views can never disagree.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant metric label, fixed at registration time.
type Label struct {
	Key, Value string
}

// L is shorthand for a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// kind discriminates metric families for exposition (# TYPE) and for
// catching a name registered twice with different kinds.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing value. All methods are atomic;
// Store exists for recovery (a restarted daemon re-seeds lifetime
// counters from its snapshot) and must not be used elsewhere.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Store overwrites the value (recovery only).
func (c *Counter) Store(n int64) { c.v.Store(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// metric is one registered series: a label-qualified member of a
// family. Exactly one of the value fields is set, matching the
// family's kind.
type metric struct {
	labels string // pre-rendered `key="value",...` (no braces), "" when unlabeled
	c      *Counter
	h      *Histogram
	fn     func() float64 // counterFunc / gaugeFunc
}

// family groups every series sharing one metric name; HELP and TYPE
// are emitted once per family.
type family struct {
	name    string
	help    string
	kind    kind
	metrics []*metric
	byLabel map[string]*metric
}

// Registry holds metric families in registration order. Registration
// is idempotent: asking for an existing (name, labels) pair returns
// the same metric, so independent subsystems can share series safely.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// familyFor finds or creates the named family, panicking on a kind
// conflict — two call sites disagreeing about what a name means is a
// programming error, not a runtime condition.
func (r *Registry) familyFor(name, help string, k kind) *family {
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, byLabel: make(map[string]*metric)}
		r.fams[name] = f
		r.order = append(r.order, f)
		return f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.kind, k))
	}
	return f
}

// seriesFor finds or creates the labeled series within a family.
func (f *family) seriesFor(labels []Label) (*metric, bool) {
	ls := renderLabels(labels)
	if m, ok := f.byLabel[ls]; ok {
		return m, true
	}
	m := &metric{labels: ls}
	f.byLabel[ls] = m
	f.metrics = append(f.metrics, m)
	return m, false
}

// Counter registers (or finds) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, existed := r.familyFor(name, help, kindCounter).seriesFor(labels)
	if !existed {
		m.c = &Counter{}
	}
	return m.c
}

// Histogram registers (or finds) a latency histogram series.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, existed := r.familyFor(name, help, kindHistogram).seriesFor(labels)
	if !existed {
		m.h = NewHistogram()
	}
	return m.h
}

// CounterFunc registers a counter series whose value is read from fn
// at exposition time — for monotonic values another subsystem already
// maintains (the workload stream's observed count, the store's disk
// errors) that would be wasteful to double-count.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, existed := r.familyFor(name, help, kindCounter).seriesFor(labels)
	if !existed {
		m.fn = fn
	}
}

// GaugeFunc registers a gauge series read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, existed := r.familyFor(name, help, kindGauge).seriesFor(labels)
	if !existed {
		m.fn = fn
	}
}

// renderLabels renders a label set as `k1="v1",k2="v2"` with keys
// sorted, so the same set always maps to the same series regardless of
// argument order. Values are escaped per the exposition format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}
