package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its call into that layer. Spans of one operation
// share a trace id; Parent is the id of the span that caused this one
// (0 for the operation's root). Aggregate spans carry a duration the
// program accumulated itself (the lp.* spans an obs.Trace receives):
// they are laid out back to back from their parent's start and Count
// says how many intervals they sum.
type span struct {
	ID        int    `json:"id"`
	Trace     int    `json:"trace"`
	Parent    int    `json:"parent"`
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	Aggregate bool   `json:"aggregate,omitempty"`
	Count     int64  `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps spans in memory; nothing is written until the run
// ends. A nil recorder records nothing, so the untraced run executes
// the same code with tracing off. It is used from one goroutine.
type recorder struct {
	epoch time.Time
	spans []span
	trace int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newTrace starts the next operation's trace.
func (r *recorder) newTrace() {
	if r != nil {
		r.trace++
	}
}

// start opens a span under parent and returns its id and the function
// that closes it.
func (r *recorder) start(name string, parent int) (id int, end func()) {
	if r == nil {
		return 0, func() {}
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Trace: r.trace, Parent: parent, Name: name,
		StartNS: time.Since(r.epoch).Nanoseconds(),
	})
	id = len(r.spans)
	return id, func() { r.spans[id-1].EndNS = time.Since(r.epoch).Nanoseconds() }
}

// timed runs fn inside a span and returns the span's id and how long
// fn took.
func (r *recorder) timed(name string, parent int, fn func()) (int, time.Duration) {
	id, end := r.start(name, parent)
	t := time.Now()
	fn()
	d := time.Since(t)
	end()
	return id, d
}

// aggregate adds child spans for durations the program summed itself,
// laid out consecutively from the parent's start, and returns their ids
// (0 for a part with no duration, which gets no span).
func (r *recorder) aggregate(parent int, parts []aggPart) []int {
	ids := make([]int, len(parts))
	if r == nil || parent == 0 {
		return ids
	}
	at := r.spans[parent-1].StartNS
	for i, p := range parts {
		if p.dur <= 0 {
			continue
		}
		r.spans = append(r.spans, span{
			ID: len(r.spans) + 1, Trace: r.trace, Parent: parent, Name: p.name,
			StartNS: at, EndNS: at + p.dur.Nanoseconds(), Aggregate: true, Count: p.count,
		})
		ids[i] = len(r.spans)
		at += p.dur.Nanoseconds()
	}
	return ids
}

type aggPart struct {
	name  string
	dur   time.Duration
	count int64
}

// selfTimes returns, per span id, the span's duration minus the part
// of its interval that its child spans cover (overlapping children are
// not counted twice).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered int64
		reach := s.StartNS
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < reach {
				lo = reach
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}

// nameTotals sums total and self time per span name, and counts spans.
type nameTotals struct {
	total, self time.Duration
	n           int64
}

func totalsByName(spans []span) map[string]nameTotals {
	self := selfTimes(spans)
	out := make(map[string]nameTotals)
	for _, s := range spans {
		t := out[s.Name]
		t.total += s.dur()
		t.self += self[s.ID]
		if s.Aggregate {
			t.n += s.Count
		} else {
			t.n++
		}
		out[s.Name] = t
	}
	return out
}

// write stores the spans as bench/out/trace-<workload>.json.
func (r *recorder) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	body, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, r.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, body, 0o644)
}
