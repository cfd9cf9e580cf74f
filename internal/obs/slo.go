package obs

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Objective is one declared service-level objective, judged by
// cophybench against a measured run. Two kinds exist:
//
//   - latency: "<endpoint>.p<q><op><duration>", e.g. recommend.p99<=250ms —
//     at most (1−q) of the endpoint's requests may exceed the limit.
//   - rate: "error_rate<1%" / "shed_rate<5%" — at most that fraction
//     of requests may be errors or sheds (429).
//
// The comparison operators <=, < and = are accepted and equivalent:
// the histogram's one-bucket conservatism already blurs the boundary,
// so a strict/inclusive distinction would be noise. ParseObjective
// canonicalizes everything to <=.
type Objective struct {
	// Kind discriminates the variants below.
	Kind ObjectiveKind `json:"kind"`
	// Endpoint is the latency objective's target endpoint
	// ("recommend", "whatif", ...). Empty for rate objectives.
	Endpoint string `json:"endpoint,omitempty"`
	// Quantile (e.g. 0.99) and Limit apply to latency objectives.
	Quantile float64       `json:"quantile,omitempty"`
	Limit    time.Duration `json:"-"`
	// MaxRate is the rate objective's allowed bad fraction (0.05 = 5%).
	MaxRate float64 `json:"max_rate,omitempty"`
	// Rate names which rate a rate objective bounds: "error_rate" or
	// "shed_rate".
	Rate string `json:"rate,omitempty"`
}

// ObjectiveKind is the objective variant tag.
type ObjectiveKind string

const (
	KindLatency ObjectiveKind = "latency"
	KindRate    ObjectiveKind = "rate"
)

// String renders the canonical form ParseObjective accepts back.
func (o Objective) String() string {
	if o.Kind == KindLatency {
		return fmt.Sprintf("%s.%s<=%s", o.Endpoint, quantileName(o.Quantile), o.Limit)
	}
	return fmt.Sprintf("%s<=%s", o.Rate, formatPercent(o.MaxRate))
}

func quantileName(q float64) string {
	// 0.99 → p99, 0.999 → p999, 0.5 → p50.
	s := strconv.FormatFloat(q, 'f', -1, 64)
	s = strings.TrimPrefix(s, "0.")
	for len(s) < 2 {
		s += "0"
	}
	return "p" + s
}

func formatPercent(f float64) string {
	return strconv.FormatFloat(f*100, 'f', -1, 64) + "%"
}

// ParseObjectives parses a comma- or newline-separated objective list
// (cophybench's -slo flag). Blank entries and
// #-comment lines are skipped. Duplicate objectives (same canonical
// form) are an error — two copies of one objective can only disagree.
func ParseObjectives(s string) ([]Objective, error) {
	var out []Objective
	seen := make(map[string]bool)
	for _, line := range strings.Split(s, "\n") {
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		for _, part := range strings.Split(line, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			o, err := ParseObjective(part)
			if err != nil {
				return nil, err
			}
			if key := o.String(); seen[key] {
				return nil, fmt.Errorf("slo: duplicate objective %q", key)
			} else {
				seen[key] = true
			}
			out = append(out, o)
		}
	}
	return out, nil
}

// ParseObjective parses one objective. Accepted shapes:
//
//	recommend.p99<=250ms   ingest.p95<10ms   whatif.p50=1ms
//	error_rate<1%          shed_rate<=5%     errors<0.01   shed<5%
//
// "errors" and "shed" are aliases for "error_rate" and "shed_rate";
// rate limits take a percentage ("5%") or a bare fraction ("0.05").
func ParseObjective(s string) (Objective, error) {
	s = strings.TrimSpace(s)
	name, op, val := splitOp(s)
	if op == "" {
		return Objective{}, fmt.Errorf("slo: %q: want <name><=|<|=><limit>", s)
	}
	name = strings.TrimSpace(name)
	val = strings.TrimSpace(val)
	if name == "" || val == "" {
		return Objective{}, fmt.Errorf("slo: %q: empty name or limit", s)
	}

	// Rate objectives (with aliases).
	switch name {
	case "error_rate", "errors", "error":
		rate, err := parseRate(val)
		if err != nil {
			return Objective{}, fmt.Errorf("slo: %q: %w", s, err)
		}
		return Objective{Kind: KindRate, Rate: "error_rate", MaxRate: rate}, nil
	case "shed_rate", "shed", "sheds":
		rate, err := parseRate(val)
		if err != nil {
			return Objective{}, fmt.Errorf("slo: %q: %w", s, err)
		}
		return Objective{Kind: KindRate, Rate: "shed_rate", MaxRate: rate}, nil
	}

	// Latency objectives: endpoint.pNN <= duration.
	dot := strings.LastIndex(name, ".")
	if dot < 0 {
		return Objective{}, fmt.Errorf("slo: %q: unknown objective %q (want endpoint.pNN, error_rate or shed_rate)", s, name)
	}
	endpoint, qname := name[:dot], name[dot+1:]
	q, err := parseQuantile(qname)
	if err != nil {
		return Objective{}, fmt.Errorf("slo: %q: %w", s, err)
	}
	if endpoint == "" {
		return Objective{}, fmt.Errorf("slo: %q: empty endpoint", s)
	}
	limit, err := time.ParseDuration(val)
	if err != nil {
		return Objective{}, fmt.Errorf("slo: %q: bad duration %q", s, val)
	}
	if limit <= 0 {
		return Objective{}, fmt.Errorf("slo: %q: limit must be positive", s)
	}
	return Objective{Kind: KindLatency, Endpoint: endpoint, Quantile: q, Limit: limit}, nil
}

// splitOp finds the first comparison operator, longest match first.
func splitOp(s string) (name, op, val string) {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<':
			if i+1 < len(s) && s[i+1] == '=' {
				return s[:i], "<=", s[i+2:]
			}
			return s[:i], "<", s[i+1:]
		case '=':
			return s[:i], "=", s[i+1:]
		}
	}
	return s, "", ""
}

// parseQuantile maps "p99" → 0.99, "p999" → 0.999, "p50" → 0.5.
func parseQuantile(s string) (float64, error) {
	if len(s) < 2 || s[0] != 'p' {
		return 0, fmt.Errorf("bad quantile %q (want p50, p95, p99, p999, ...)", s)
	}
	digits := s[1:]
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad quantile %q", s)
		}
	}
	n, err := strconv.ParseFloat(digits, 64)
	if err != nil {
		return 0, fmt.Errorf("bad quantile %q", s)
	}
	// pXY means 0.XY: the digits go after the decimal point.
	scale := 1.0
	for range digits {
		scale *= 10
	}
	q := n / scale
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("quantile %q out of (0,1)", s)
	}
	return q, nil
}

// parseRate parses "5%" or "0.05" into a fraction in (0,1).
func parseRate(s string) (float64, error) {
	pct := strings.HasSuffix(s, "%")
	s = strings.TrimSuffix(s, "%")
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad rate %q", s)
	}
	if pct {
		f /= 100
	}
	if f <= 0 || f >= 1 {
		return 0, fmt.Errorf("rate %v out of (0,1)", f)
	}
	return f, nil
}
