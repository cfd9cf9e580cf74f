package engine

import (
	"math"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/workload"
)

// coveringConfig adds to base one covering index per table of q, keyed
// on the table's grouping and ordering columns (else its first touched
// column), so the DP's full-mask entries deliver orders that finalize
// can exploit.
func coveringConfig(base *Config, q *workload.Query) *Config {
	cfg := NewConfig(base.Indexes()...)
	for _, t := range q.Tables {
		cols := q.ColumnsOf(t)
		var key []string
		for _, r := range slices.Concat(q.GroupBy, q.OrderBy) {
			if r.Table == t && !slices.Contains(key, r.Column) {
				key = append(key, r.Column)
			}
		}
		if len(key) == 0 && len(cols) > 0 {
			key = cols[:1]
		}
		var include []string
		for _, c := range cols {
			if !slices.Contains(key, c) {
				include = append(include, c)
			}
		}
		cfg.Add(&catalog.Index{Table: t, Key: key, Include: include})
	}
	return cfg
}

// TestPlanFinishMatchesFinalize pins planFinish, the scalar-only
// decision optimizeMemo ranks full-mask DP entries by, to finalize, the
// pass that builds what was decided and whose cost the chosen plan
// reports: for every entry of the full-mask DP set, over Hom and Het
// queries with GROUP BY, aggregates and ORDER BY, under the baseline
// and a covering configuration, in plain and template mode, on both
// cost profiles (System B's hash and sort fudges are not powers of two,
// so a re-associated product shows), both price to the same float64
// bits.
func TestPlanFinishMatchesFinalize(t *testing.T) {
	cat, _, base := testEnv(t)
	var queries []*workload.Query
	for _, w := range []*workload.Workload{
		workload.Hom(workload.HomConfig{Queries: 45, Seed: 61}),
		workload.Het(workload.HetConfig{Queries: 60, Seed: 62}),
	} {
		for _, st := range w.Queries() {
			if q := st.Query; len(q.GroupBy) > 0 || q.Aggregate || len(q.OrderBy) > 0 {
				queries = append(queries, q)
			}
		}
	}

	var grouped, aggregated, ordered int
	for _, q := range queries {
		switch {
		case len(q.GroupBy) > 0:
			grouped++
		case q.Aggregate:
			aggregated++
		}
		if len(q.OrderBy) > 0 {
			ordered++
		}
	}
	var entries, orderedEntries int
	for _, e := range []*Engine{New(cat, SystemA()), New(cat, SystemB())} {
		for _, q := range queries {
			for _, cfg := range []*Config{base, coveringConfig(base, q)} {
				for _, templateMode := range []bool{false, true} {
					m := e.getMemo(q, cfg, templateMode)
					full := e.optimizeJoin(m, nil)
					if full == nil {
						t.Fatalf("%s: no plan", q.ID)
					}
					for i := range full.ents {
						en := &full.ents[i]
						f := e.planFinish(m, en.cost, en.rows, en.width, en.order)
						got := e.finalize(m, m.materialize(1<<len(m.tables)-1, i), f).Cost
						if math.Float64bits(f.cost) != math.Float64bits(got) {
							t.Fatalf("%s %s (template mode %v) entry %d: planFinish %v, finalize %v", e.Prof.Name, q.ID, templateMode, i, f.cost, got)
						}
						entries++
						if len(en.order) > 0 {
							orderedEntries++
						}
					}
					e.putMemo(m)
				}
			}
		}
	}
	if grouped == 0 || aggregated == 0 || ordered == 0 || orderedEntries == 0 {
		t.Fatalf("coverage too thin: %d grouped, %d aggregate-only, %d ordered queries, %d ordered entries", grouped, aggregated, ordered, orderedEntries)
	}
	t.Logf("%d queries, %d full-mask entries (%d delivering an order)", len(queries), entries, orderedEntries)
}
