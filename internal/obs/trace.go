package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is one request's span accumulator: a trace ID plus named,
// summed span durations. It travels in the request's context.Context;
// the solver layers record into it with nil-safe methods, so code
// running outside any request (tests, batch mode, recovery) calls the
// same functions and they cost one nil check.
//
// Spans are accumulated by name, not nested: the z subproblem solves
// a few hundred LPs per /recommend, and what the request breakdown
// needs is "how much of this request was LP phase 2", not four hundred
// individual intervals. Count travels with the sum so repeated spans
// (LP solves, WAL appends) stay countable.
type Trace struct {
	// ID is the request's trace identifier (16 hex chars), minted by
	// NewTrace and echoed in the X-Trace-Id response header and the
	// per-request log line.
	ID string
	// Start is when the trace was minted.
	Start time.Time

	mu    sync.Mutex
	order []string
	spans map[string]*spanCell
}

type spanCell struct {
	dur time.Duration
	n   int64
}

// Span is one named span's accumulated timing in a finished trace.
type Span struct {
	Name  string
	Dur   time.Duration
	Count int64
}

// traceSeq breaks ID ties if crypto/rand ever fails (it practically
// cannot); IDs must never silently collide.
var traceSeq atomic.Uint64

// NewTrace mints a trace with a fresh random ID.
func NewTrace() *Trace {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		seq := traceSeq.Add(1)
		for i := range b {
			b[i] = byte(seq >> (8 * i))
		}
	}
	return &Trace{
		ID:    hex.EncodeToString(b[:]),
		Start: time.Now(),
		spans: make(map[string]*spanCell),
	}
}

type traceKey struct{}

// WithTrace attaches the trace to a context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil — including for a nil
// context, so solver layers can pass whatever context they hold.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// Add accumulates d into the named span (count +1). Nil-safe.
func (t *Trace) Add(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	c := t.spans[name]
	if c == nil {
		c = &spanCell{}
		t.spans[name] = c
		t.order = append(t.order, name)
	}
	c.dur += d
	c.n++
	t.mu.Unlock()
}

// StartSpan starts a named span and returns its stop function. On a
// nil trace the returned function is a no-op, so call sites need no
// guard:
//
//	defer obs.TraceFrom(ctx).StartSpan("wal.append")()
func (t *Trace) StartSpan(name string) func() {
	if t == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { t.Add(name, time.Since(t0)) }
}

// Spans returns the accumulated spans in first-recorded order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.order))
	for _, name := range t.order {
		c := t.spans[name]
		out = append(out, Span{Name: name, Dur: c.dur, Count: c.n})
	}
	return out
}

// Dur returns one span's accumulated duration (0 when absent).
func (t *Trace) Dur(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.spans[name]; c != nil {
		return c.dur
	}
	return 0
}
