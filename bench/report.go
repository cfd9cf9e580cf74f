package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"time"
)

// manifest is BENCHMARK.json: the one place metric names, units,
// directions and bounds are declared. The benchmark reads it at start
// and refuses to emit a metric it does not declare, or to finish
// without one it does.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
	byName     map[string]*metricDecl
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m.byName = make(map[string]*metricDecl)
	for _, list := range [][]metricDecl{m.EndToEnd, m.PerLayer} {
		for i := range list {
			d := &list[i]
			if !metricName.MatchString(d.Name) {
				return nil, fmt.Errorf("%s: bad metric name %q", path, d.Name)
			}
			if m.byName[d.Name] != nil {
				return nil, fmt.Errorf("%s: metric %q declared twice", path, d.Name)
			}
			if d.Better != "lower" && d.Better != "higher" {
				return nil, fmt.Errorf("%s: metric %q: better is %q", path, d.Name, d.Better)
			}
			m.byName[d.Name] = d
		}
	}
	return &m, nil
}

func (m *manifest) hasWorkload(name string) bool {
	for _, w := range m.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// report is what one run of one workload produces: its output checks,
// the end-to-end metrics (untraced run) or per-layer metrics (traced
// run), and detail lines for the reader.
type report struct {
	checks
	metrics map[string]float64
	detail  []string
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// timing sets a metric to the median of its samples (times scale) and
// keeps the sample count, quartiles and tail percentile beside it.
func (r *report) timing(name string, s samples, scale float64) {
	r.set(name, s.median()*scale)
	r.spread(name, s, scale)
}

// spread records a series' sample count, quartiles and tail without
// setting a metric, for series reported under another statistic.
func (r *report) spread(name string, s samples, scale float64) {
	if len(s) == 0 {
		return
	}
	q1, q3 := s.quartiles()
	tq, tv := s.tail()
	r.detail = append(r.detail, fmt.Sprintf("%s: n=%d median=%.6g q1=%.6g q3=%.6g p%g=%.6g",
		name, len(s), s.median()*scale, q1*scale, q3*scale, tq*100, tv*scale))
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the metrics by name with their units, the detail lines
// and failed checks, then the result line holding exactly the declared
// metrics of the run's kind. A per-layer metric a workload does not
// exercise is reported as 0; an end-to-end metric must be measured.
func (r *report) print(out io.Writer, m *manifest, traced bool) (resultLine, error) {
	declared := m.EndToEnd
	if traced {
		declared = m.PerLayer
	}
	line := resultLine{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue)}
	for _, d := range declared {
		v, ok := r.metrics[d.Name]
		if !ok && !traced {
			return line, fmt.Errorf("end-to-end metric %q was not measured", d.Name)
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var names []string
	for name := range r.metrics {
		d := m.byName[name]
		if d == nil {
			return line, fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "%-36s %14.6g %s\n", name, r.metrics[name], m.byName[name].Unit)
	}
	for _, l := range r.detail {
		fmt.Fprintln(out, "  "+l)
	}
	for _, n := range r.notes {
		fmt.Fprintln(out, "FAILED CHECK:", n)
	}
	if r.attempted < 1 {
		return line, fmt.Errorf("no output check ran")
	}
	line.Correct = r.failed == 0
	body, err := json.Marshal(line)
	if err != nil {
		return line, err
	}
	fmt.Fprintln(out, string(body))
	return line, nil
}

// setRSS ends the sampler and reports the median over the run's
// untraced passes of each pass's peak resident set.
func (r *report) setRSS(rss *rssSampler, peaks samples) error {
	r.timing("peak_rss_mb", peaks, 1)
	return rss.stop()
}

// setMem reports allocator work per operation and collector work over
// the timed section.
func (r *report) setMem(d memDelta, ops int) {
	r.set("go.alloc_mb", d.allocMB/float64(ops))
	r.set("go.mallocs", d.mallocs/float64(ops))
	r.set("go.gc_cycles", d.gcCycles)
	r.set("go.gc_pause_ms", d.gcPauseMS)
}

// setTraceHealth reports how far the attribution can be trusted: the
// wall time tracing added to the median operation, and the share of
// the traced operations' wall time no child span accounts for.
func (r *report) setTraceHealth(rec *recorder, root string, untracedS, tracedS float64) {
	if untracedS > 0 {
		r.set("bench.trace_overhead_share", (tracedS-untracedS)/untracedS)
	}
	self := selfTimes(rec.spans)
	var wall, own time.Duration
	for _, s := range rec.spans {
		if s.Name == root && s.Parent == 0 {
			wall += s.dur()
			own += self[s.ID]
		}
	}
	if wall > 0 {
		r.set("bench.unattributed_share", own.Seconds()/wall.Seconds())
	}
	totals := totalsByName(rec.spans)
	var names []string
	for name := range totals {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return totals[names[i]].self > totals[names[j]].self })
	for _, name := range names {
		t := totals[name]
		r.detail = append(r.detail, fmt.Sprintf("span %-24s n=%-6d total=%9.4fs self=%9.4fs", name, t.n, t.total.Seconds(), t.self.Seconds()))
	}
}

func (r *report) writeTrace(rec *recorder, cfg config) error {
	path, err := rec.write(cfg.outDir, cfg.workload)
	if err != nil {
		return err
	}
	r.detail = append(r.detail, fmt.Sprintf("%d spans written to %s", len(rec.spans), path))
	return nil
}
