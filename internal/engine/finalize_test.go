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
						f := e.planFinish(m, en.cost, en.rows, en.width, m.orders[en.okeyID])
						got := e.finalize(m, m.materialize(1<<len(m.tables)-1, i), f).Cost
						if math.Float64bits(f.cost) != math.Float64bits(got) {
							t.Fatalf("%s %s (template mode %v) entry %d: planFinish %v, finalize %v", e.Prof.Name, q.ID, templateMode, i, f.cost, got)
						}
						entries++
						if len(m.orders[en.okeyID]) > 0 {
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

// derivationPasses returns the forced maps of a template derivation of
// q in the manner of INUM's walk: per table the options "unforced",
// each join column and the grouping and ordering columns on it, and
// the mixed-radix combinations of those, 48 at most.
func derivationPasses(q *workload.Query) []map[string][]catalog.ColumnRef {
	opts := make([][][]catalog.ColumnRef, len(q.Tables))
	for i, t := range q.Tables {
		opts[i] = [][]catalog.ColumnRef{nil}
		for _, jc := range q.JoinColsOf(t) {
			opts[i] = append(opts[i], []catalog.ColumnRef{{Table: t, Column: jc}})
		}
		for _, refs := range [][]catalog.ColumnRef{q.GroupBy, q.OrderBy} {
			if len(refs) > 0 && refs[0].Table == t {
				opts[i] = append(opts[i], refs[:1])
			}
		}
	}
	passes := []map[string][]catalog.ColumnRef{nil}
	for ci := 1; ci <= 48; ci++ {
		forced := map[string][]catalog.ColumnRef{}
		rest := ci
		for i, o := range opts {
			if c := rest % len(o); c > 0 {
				forced[q.Tables[i]] = o[c]
			}
			rest /= len(o)
		}
		if rest > 0 {
			break
		}
		passes = append(passes, forced)
	}
	return passes
}

// sameLeaf reports whether the provenance walk's leaf equals the plan
// tree's leaf node in every field INUM reads, floats by bits.
func sameLeaf(l TemplateLeaf, n *PlanNode) bool {
	return l.Op == n.Op && l.Table == n.Table && l.Index == n.Index && slices.Equal(l.Order, n.Order) &&
		l.LookupCol == n.LookupCol && math.Float64bits(l.Lookups) == math.Float64bits(n.Lookups) &&
		math.Float64bits(l.SelfCost) == math.Float64bits(n.SelfCost)
}

// TestTemplateLeavesMatchMaterialize pins template mode's leaf walk
// over DP provenance (appendLeaves) to the plan tree materialize builds
// and PlanNode.Leaves reads: for every full-mask entry of every pass of
// a derivation whose passes share DP subset versions, over Hom and Het
// queries on both cost profiles, the same leaves in the same order,
// field for field; and TemplatePlan's cost is the bits of the cost
// finalize gives the winner's tree. The guard requires nested-loop
// lookup leaves, merge joins fed by a sort, and passes that reuse a
// version an earlier pass built.
func TestTemplateLeavesMatchMaterialize(t *testing.T) {
	cat, _, base := testEnv(t)
	var queries []*workload.Query
	for _, w := range []*workload.Workload{
		workload.Hom(workload.HomConfig{Queries: 40, Seed: 63}),
		workload.Het(workload.HetConfig{Queries: 40, Seed: 64}),
	} {
		for _, st := range w.Queries() {
			queries = append(queries, st.Query)
		}
	}
	var entries, lookups, sortedMerges, reusedPasses int
	var walk []TemplateLeaf
	for _, e := range []*Engine{New(cat, SystemA()), New(cat, SystemB())} {
		for _, q := range queries {
			cfg := coveringConfig(base, q)
			for _, tb := range q.Tables {
				for _, jc := range q.JoinColsOf(tb) {
					cfg.Add(&catalog.Index{Table: tb, Key: []string{jc}})
				}
			}
			tc := e.NewTemplateCtx(q, cfg)
			m, fullMask := tc.memo, 1<<len(q.Tables)-1
			for pi, forced := range derivationPasses(q) {
				leaves, cost, err := tc.TemplatePlan(forced, nil)
				full := m.dp[fullMask]
				if err != nil {
					if len(full.ents) != 0 {
						t.Fatalf("%s pass %d: %v with %d full-mask entries", q.ID, pi, err, len(full.ents))
					}
					continue
				}
				if slices.Contains(m.fresh[1:], false) {
					reusedPasses++
				}
				for i := range full.ents {
					walk = m.appendLeaves(walk[:0], fullMask, i)
					tree := m.materialize(fullMask, i)
					want := tree.Leaves(nil)
					if len(walk) != len(want) {
						t.Fatalf("%s %s pass %d entry %d: walk has %d leaves, tree %d", e.Prof.Name, q.ID, pi, i, len(walk), len(want))
					}
					for li := range walk {
						if !sameLeaf(walk[li], want[li]) {
							t.Fatalf("%s %s pass %d entry %d leaf %d: walk %+v, tree %s", e.Prof.Name, q.ID, pi, i, li, walk[li], want[li].Format())
						}
						if walk[li].Op == OpIndexLookup {
							lookups++
						}
					}
					sortedMerges += countSortedMerges(tree)
					entries++
				}
				bi, best := e.bestFinish(m, full)
				root := e.finalize(m, m.materialize(fullMask, bi), best)
				if math.Float64bits(cost) != math.Float64bits(root.Cost) {
					t.Fatalf("%s %s pass %d: TemplatePlan cost %v, finalize %v", e.Prof.Name, q.ID, pi, cost, root.Cost)
				}
				want := root.Leaves(nil)
				if len(leaves) != len(want) {
					t.Fatalf("%s %s pass %d: TemplatePlan has %d leaves, tree %d", e.Prof.Name, q.ID, pi, len(leaves), len(want))
				}
				for li := range leaves {
					if !sameLeaf(leaves[li], want[li]) {
						t.Fatalf("%s %s pass %d leaf %d: TemplatePlan %+v, tree %s", e.Prof.Name, q.ID, pi, li, leaves[li], want[li].Format())
					}
				}
			}
			tc.Close()
		}
	}
	if lookups == 0 || sortedMerges == 0 || reusedPasses == 0 {
		t.Fatalf("coverage too thin: %d entries, %d lookup leaves, %d merge inputs sorted, %d passes reusing versions", entries, lookups, sortedMerges, reusedPasses)
	}
	t.Logf("%d full-mask entries: %d lookup leaves, %d merge inputs sorted; %d passes reusing versions", entries, lookups, sortedMerges, reusedPasses)
}

// countSortedMerges counts the merge-join inputs in n's tree that a
// Sort delivers.
func countSortedMerges(n *PlanNode) int {
	c := 0
	for _, ch := range n.Children {
		if n.Op == OpMergeJoin && ch.Op == OpSort {
			c++
		}
		c += countSortedMerges(ch)
	}
	return c
}

// TestRequirementOverflowMatchesFreshMemo drives one table of a
// template context through more distinct forced orders than a version
// key can number (maxReqs), twice over, so the context drops its
// versions mid-derivation and rebuilds them; every pass must still
// equal the same pass in a memo of its own (TemplateTree): cost bits
// and leaves.
func TestRequirementOverflowMatchesFreshMemo(t *testing.T) {
	cat, e, base := testEnv(t)
	var q *workload.Query
	for _, st := range workload.Hom(workload.HomConfig{Queries: 40, Seed: 65}).Queries() {
		if len(st.Query.Tables) >= 3 && slices.Contains(st.Query.Tables, "lineitem") {
			q = st.Query
			break
		}
	}
	if q == nil {
		t.Fatal("no three-table query over lineitem")
	}
	cols := cat.Table("lineitem").Cols
	cfg := NewConfig(base.Indexes()...)
	var orders [][]catalog.ColumnRef
	for i := 0; len(orders) < maxReqs+8; i++ {
		a, b := cols[i%len(cols)].Name, cols[(i/len(cols)+i+1)%len(cols)].Name
		cfg.Add(&catalog.Index{Table: "lineitem", Key: []string{a, b}})
		orders = append(orders, []catalog.ColumnRef{{Table: "lineitem", Column: a}, {Table: "lineitem", Column: b}})
	}
	tc := e.NewTemplateCtx(q, cfg)
	defer tc.Close()
	li := slices.Index(q.Tables, "lineitem")
	resets, planned, prev := 0, 0, 0
	for round := 0; round < 2; round++ {
		for _, o := range orders {
			forced := map[string][]catalog.ColumnRef{"lineitem": o}
			leaves, cost, err := tc.TemplatePlan(forced, nil)
			if n := len(tc.memo.reqs[li]); n < prev {
				resets++
			}
			prev = len(tc.memo.reqs[li])
			p, refErr := e.TemplateTree(q, cfg, forced)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("order %v: error %v, fresh memo %v", o, err, refErr)
			}
			if err != nil {
				continue
			}
			planned++
			want := p.Root.Leaves(nil)
			if math.Float64bits(cost) != math.Float64bits(p.Cost) || len(leaves) != len(want) {
				t.Fatalf("order %v: cost %v with %d leaves, fresh memo %v with %d", o, cost, len(leaves), p.Cost, len(want))
			}
			for k := range leaves {
				if !sameLeaf(leaves[k], want[k]) {
					t.Fatalf("order %v leaf %d: %+v, fresh memo %s", o, k, leaves[k], want[k].Format())
				}
			}
		}
	}
	if resets < 2 || planned < len(orders) {
		t.Fatalf("coverage too thin: %d version resets, %d of %d passes planned", resets, planned, 2*len(orders))
	}
}
