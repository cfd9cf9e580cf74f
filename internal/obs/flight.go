package obs

import (
	"sort"
	"sync"
	"time"
)

// FlightRecorder retains the completed traces worth keeping: the
// slowest K requests per endpoint plus every shed (429) and error
// (5xx) request in a bounded FIFO ring, each with its full span
// breakdown — so a p99 violation or an incident comes with the exact
// traces that caused it, not just an aggregate. Everything is copied
// at Note time (a FlightEntry owns its spans), so dumped entries never
// alias a live trace.
//
// Memory is strictly bounded: endpoints × keep + eventCap entries of a
// few hundred bytes each. All methods are nil-receiver-safe so the
// recorder can be optional wiring.
type FlightRecorder struct {
	mu      sync.Mutex
	keep    int                       // slowest-K retained per endpoint
	slowest map[string][]*FlightEntry // per endpoint, unordered; min evicted on overflow
	events  []*FlightEntry            // shed/error FIFO ring
	eventAt int                       // next ring write position
	evCap   int
	seq     uint64 // monotone arrival stamp, tie-break and dump order
}

// FlightEntry is one retained request, JSON-shaped for /debug/traces.
type FlightEntry struct {
	TraceID  string      `json:"trace_id"`
	Endpoint string      `json:"endpoint"`
	Status   int         `json:"status"`
	Start    time.Time   `json:"start"`
	Millis   float64     `json:"duration_millis"`
	Reason   string      `json:"reason"` // "slow", "shed" or "error"
	Spans    []SpanEntry `json:"spans"`

	dur time.Duration
	seq uint64
}

// SpanEntry is one span of a retained trace.
type SpanEntry struct {
	Name   string  `json:"name"`
	Millis float64 `json:"millis"`
	Count  int64   `json:"count,omitempty"`
}

// FlightDump is the JSON body of GET /debug/traces.
type FlightDump struct {
	// Slowest maps endpoint → its retained slowest requests, slowest
	// first.
	Slowest map[string][]*FlightEntry `json:"slowest"`
	// Events are the retained shed/error requests, oldest first.
	Events []*FlightEntry `json:"events"`
}

// NewFlightRecorder retains the slowest keepPerEndpoint requests per
// endpoint and the last eventCap shed/error requests; both must be
// positive.
func NewFlightRecorder(keepPerEndpoint, eventCap int) *FlightRecorder {
	return &FlightRecorder{
		keep:    keepPerEndpoint,
		slowest: make(map[string][]*FlightEntry),
		events:  make([]*FlightEntry, 0, eventCap),
		evCap:   eventCap,
	}
}

// Note records one completed request. tr may be nil (the span list is
// then empty). Nil-safe.
func (f *FlightRecorder) Note(endpoint string, status int, start time.Time, dur time.Duration, tr *Trace) {
	if f == nil {
		return
	}
	entry := &FlightEntry{
		Endpoint: endpoint,
		Status:   status,
		Start:    start,
		Millis:   float64(dur) / float64(time.Millisecond),
		Reason:   "slow",
		dur:      dur,
	}
	if tr != nil {
		entry.TraceID = tr.ID
		for _, sp := range tr.Spans() {
			entry.Spans = append(entry.Spans, SpanEntry{
				Name:   sp.Name,
				Millis: float64(sp.Dur) / float64(time.Millisecond),
				Count:  sp.Count,
			})
		}
	}
	isEvent := status == 429 || status >= 500
	if isEvent {
		if status == 429 {
			entry.Reason = "shed"
		} else {
			entry.Reason = "error"
		}
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	entry.seq = f.seq
	f.seq++

	if isEvent {
		if len(f.events) < f.evCap {
			f.events = append(f.events, entry)
		} else {
			f.events[f.eventAt] = entry
			f.eventAt = (f.eventAt + 1) % f.evCap
		}
		// A shed/error request is retained as an event; it does not
		// also compete for the slowest-K slots (its latency is an
		// artifact of queueing or failure, not of serving).
		return
	}

	ring := f.slowest[endpoint]
	if len(ring) < f.keep {
		f.slowest[endpoint] = append(ring, entry)
		return
	}
	// Replace the fastest retained entry if this one is slower.
	min := 0
	for i := 1; i < len(ring); i++ {
		if ring[i].dur < ring[min].dur {
			min = i
		}
	}
	if entry.dur > ring[min].dur {
		ring[min] = entry
	}
}

// Dump snapshots the retained entries: per-endpoint slowest requests
// (slowest first) and the shed/error events (oldest first).
func (f *FlightRecorder) Dump() FlightDump {
	dump := FlightDump{Slowest: map[string][]*FlightEntry{}, Events: []*FlightEntry{}}
	if f == nil {
		return dump
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for ep, ring := range f.slowest {
		cp := make([]*FlightEntry, len(ring))
		copy(cp, ring)
		sort.Slice(cp, func(i, j int) bool { return cp[i].dur > cp[j].dur })
		dump.Slowest[ep] = cp
	}
	// Unroll the ring into oldest-first order.
	if len(f.events) < f.evCap {
		dump.Events = append(dump.Events, f.events...)
	} else {
		dump.Events = append(dump.Events, f.events[f.eventAt:]...)
		dump.Events = append(dump.Events, f.events[:f.eventAt]...)
	}
	return dump
}
