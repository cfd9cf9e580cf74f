package obs

import (
	"bufio"
	"io"
	"strconv"
)

// promBounds are the cumulative `le` bounds (seconds) histograms are
// exposed with: a 1–2.5–5 ladder from 10µs to 60s, wide enough for a
// sub-millisecond /whatif and a multi-second degraded /recommend in
// the same family. Internally histograms keep their fine log-linear
// buckets (quantiles stay within 6.25%); exposition projects onto this
// fixed ladder so the series set is stable across scrapes. A fine
// bucket straddling a bound is counted under the next one — cumulative
// counts never overclaim (see HistSnapshot.cumLE).
var promBounds = []float64{
	10e-6, 25e-6, 50e-6,
	100e-6, 250e-6, 500e-6,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5,
	10, 30, 60,
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4), families in registration
// order. Histogram samples are assumed to be nanoseconds and are
// exposed in seconds, the Prometheus base unit.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.order...)
	r.mu.Unlock()

	b := bufio.NewWriter(w)
	for _, f := range fams {
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.help)
		b.WriteByte('\n')
		b.WriteString("# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.kind.String())
		b.WriteByte('\n')
		for _, m := range f.metrics {
			switch {
			case m.h != nil:
				writeHistogram(b, f.name, m.labels, m.h.Snapshot())
			case m.c != nil:
				writeSample(b, f.name, "", m.labels, float64(m.c.Load()))
			case m.fn != nil:
				writeSample(b, f.name, "", m.labels, m.fn())
			}
		}
	}
	return b.Flush()
}

func writeHistogram(b *bufio.Writer, name, labels string, s HistSnapshot) {
	for _, bound := range promBounds {
		le := strconv.FormatFloat(bound, 'g', -1, 64)
		cum := s.cumLE(int64(bound * 1e9))
		writeSample(b, name, "_bucket", joinLabels(labels, `le="`+le+`"`), float64(cum))
	}
	writeSample(b, name, "_bucket", joinLabels(labels, `le="+Inf"`), float64(s.Count))
	writeSample(b, name, "_sum", labels, float64(s.Sum)/1e9)
	writeSample(b, name, "_count", labels, float64(s.Count))
}

func writeSample(b *bufio.Writer, name, suffix, labels string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	b.WriteByte('\n')
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}
