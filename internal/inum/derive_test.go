package inum

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// templateSig is a template's signature as text, the reference for
// the duplicate test of a derivation (derivation.add), which keeps one
// candidate per signature: the slots ordered by table, each as its
// table, mode, required order, join column and Lookups to zero
// decimals, then '|' and β to three decimals.
func templateSig(t *Template) string {
	slots := slices.Clone(t.Slots)
	slices.SortStableFunc(slots, func(a, b Slot) int { return strings.Compare(a.Table, b.Table) })
	var b strings.Builder
	for k, s := range slots {
		if k > 0 {
			b.WriteByte(';')
		}
		order := make([]string, len(s.RequiredOrder))
		for j, c := range s.RequiredOrder {
			order[j] = c.String()
		}
		fmt.Fprintf(&b, "%s/%d/%s/%s/%s", s.Table, s.Mode, strings.Join(order, "+"), s.JoinCol, strconv.FormatFloat(s.Lookups, 'f', 0, 64))
	}
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(t.Internal, 'f', 3, 64))
	return b.String()
}

// referenceTemplates derives q's templates with no work shared between
// the optimizer calls: the same walk (eachPass), but every call in a
// memo of its own through engine.TemplateTree, each plan's leaves read
// off its tree by PlanNode.Leaves, every novel template copied as it is
// met, and the copies pruned.
func referenceTemplates(e *engine.Engine, q *workload.Query, maxK int) []*Template {
	needCols := make(map[string][]string, len(q.Tables))
	for _, t := range q.Tables {
		needCols[t] = q.ColumnsOf(t)
	}
	var ts []*Template
	var sigs []string
	eachPass(q, needCols, func(cfg *engine.Config, forced map[string][]catalog.ColumnRef) {
		p, err := e.TemplateTree(q, cfg, forced)
		if err != nil {
			return
		}
		leaves := p.Root.Leaves(nil)
		var leafCost float64
		for _, l := range leaves {
			leafCost += l.SelfCost
		}
		tp := &Template{Internal: p.Root.Cost - leafCost}
		for _, leaf := range leaves {
			s := Slot{Table: leaf.Table, NeedCols: needCols[leaf.Table]}
			if leaf.Op == engine.OpIndexLookup {
				s.Mode, s.JoinCol, s.Lookups = SlotLookup, leaf.LookupCol, leaf.Lookups
			} else if req := forced[leaf.Table]; len(req) > 0 {
				s.RequiredOrder = req
			}
			tp.Slots = append(tp.Slots, s)
		}
		if sig := templateSig(tp); !slices.Contains(sigs, sig) {
			sigs, ts = append(sigs, sig), append(ts, tp)
		}
	})
	return prune(ts, maxK)
}

// TestDerivationMatchesReference holds the production derivation —
// one template context per configuration whose passes share every DP
// subset version their requirement keys allow, leaves read from DP
// provenance, candidates held in pooled scratch until prune — to
// referenceTemplates, which shares nothing and reads plan trees: for
// every shape of Hom and Het fixtures on both cost profiles, the same
// templates in the same order (β bits and every slot field, which fix
// the signature) and the same what-if call count.
func TestDerivationMatchesReference(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	var templates, lookups, ordered, shapes int
	for _, prof := range []engine.Profile{engine.SystemA(), engine.SystemB()} {
		e := engine.New(cat, prof)
		c := New(e)
		for _, w := range []*workload.Workload{
			workload.Hom(workload.HomConfig{Queries: 300, Seed: 71}),
			workload.Het(workload.HetConfig{Queries: 120, Seed: 72}),
		} {
			seen := map[string]bool{}
			for _, st := range w.Queries() {
				q := st.Query
				if fp := e.ShapeFingerprint(q); seen[fp] {
					continue
				} else {
					seen[fp] = true
				}
				shapes++
				before := e.WhatIfCalls()
				got := c.buildTemplates(q)
				gotCalls := e.WhatIfCalls() - before
				want := referenceTemplates(e, q, c.maxTemplates)
				if wantCalls := e.WhatIfCalls() - before - gotCalls; gotCalls != wantCalls {
					t.Fatalf("%s %s: %d what-if calls, reference %d", prof.Name, q.ID, gotCalls, wantCalls)
				}
				if len(got) != len(want) {
					t.Fatalf("%s %s: %d templates, reference %d", prof.Name, q.ID, len(got), len(want))
				}
				for i, g := range got {
					r := want[i]
					if math.Float64bits(g.Internal) != math.Float64bits(r.Internal) || len(g.Slots) != len(r.Slots) {
						t.Fatalf("%s %s template %d: β %v with %d slots, reference β %v with %d", prof.Name, q.ID, i, g.Internal, len(g.Slots), r.Internal, len(r.Slots))
					}
					for si := range g.Slots {
						a, b := &g.Slots[si], &r.Slots[si]
						if !sameSlot(a, b) {
							t.Fatalf("%s %s template %d slot %d: %+v, reference %+v", prof.Name, q.ID, i, si, *a, *b)
						}
						if a.Mode == SlotLookup {
							lookups++
						} else if len(a.RequiredOrder) > 0 {
							ordered++
						}
					}
					templates++
				}
			}
		}
	}
	if lookups == 0 || ordered == 0 || templates < 5*shapes {
		t.Fatalf("coverage too thin: %d shapes, %d templates, %d lookup slots, %d ordered scan slots", shapes, templates, lookups, ordered)
	}
	t.Logf("%d shapes, %d templates (%d lookup slots, %d ordered scan slots)", shapes, templates, lookups, ordered)
}

// TestDerivationScratchHoldsNoCandidates: a derivation's pooled scratch
// keeps no reference into the templates it published, so a later
// derivation reusing it cannot change them.
func TestDerivationScratchHoldsNoCandidates(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	e := engine.New(cat, engine.SystemA())
	c := New(e)
	w := workload.Hom(workload.HomConfig{Queries: 40, Seed: 73})
	qs := w.Queries()
	first := c.buildTemplates(qs[0].Query)
	snapshot := make([]Template, len(first))
	for i, tp := range first {
		snapshot[i] = Template{Internal: tp.Internal, Slots: slices.Clone(tp.Slots)}
	}
	for _, st := range qs[1:] {
		c.buildTemplates(st.Query)
	}
	for i, tp := range first {
		s := &snapshot[i]
		if math.Float64bits(tp.Internal) != math.Float64bits(s.Internal) || len(tp.Slots) != len(s.Slots) {
			t.Fatalf("template %d changed after later derivations", i)
		}
		for si := range tp.Slots {
			if !sameSlot(&tp.Slots[si], &s.Slots[si]) {
				t.Fatalf("template %d slot %d changed after later derivations", i, si)
			}
		}
	}
}

// TestDerivationKeepsDistinctSignatures: add keeps a candidate exactly
// when no earlier one has its whole text signature (templateSig),
// though it compares slots as fields and formats β only for candidates
// whose slots matched an earlier one's. The walk mixes slots listed in
// either table order, scans under one- and two-column orders, lookups
// whose probe counts differ above, below and at a rounding tie, and β
// that differ above, below and at the signature's three decimals, and
// around the 0.002 beyond which add skips the slot comparison.
func TestDerivationKeepsDistinctSignatures(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	forced := []map[string][]catalog.ColumnRef{
		nil,
		{"orders": {{Table: "orders", Column: "o_orderkey"}}},
		{"orders": {{Table: "orders", Column: "o_orderkey"}, {Table: "orders", Column: "o_orderdate"}}},
		{"orders": {{Table: "orders", Column: "o_orderkey"}}, "lineitem": {{Table: "lineitem", Column: "l_orderkey"}}},
	}
	lookups := []float64{40, 40.4999, 40.5, 39.5, 41.5, 0.4, 0.5, 1.5}
	betas := []float64{10, 10.0001, 10.0004, 10.0006, 10.0015, 10.002, 10.0025, 11, 12.5}
	leaf := func(table, col string) engine.TemplateLeaf {
		if rng.Intn(2) == 0 {
			return engine.TemplateLeaf{Op: engine.OpSeqScan, Table: table, SelfCost: 1}
		}
		return engine.TemplateLeaf{Op: engine.OpIndexLookup, Table: table, LookupCol: col, Lookups: lookups[rng.Intn(len(lookups))], SelfCost: 2}
	}
	var lookupMatches int
	for round := 0; round < 50; round++ {
		d := new(derivation)
		var want []string
		for range 40 {
			d.leaves = []engine.TemplateLeaf{leaf("orders", "o_orderkey")}
			if rng.Intn(3) > 0 {
				d.leaves = append(d.leaves, leaf("lineitem", "l_orderkey"))
				if rng.Intn(2) == 0 {
					d.leaves[0], d.leaves[1] = d.leaves[1], d.leaves[0]
				}
			}
			var leafCost float64
			for _, l := range d.leaves {
				leafCost += l.SelfCost
			}
			d.add(betas[rng.Intn(len(betas))]+leafCost, forced[rng.Intn(len(forced))], nil)
			sig := templateSig(d.cands[len(want)])
			if !slices.Contains(want, sig) {
				want = append(want, sig)
			} else if strings.Contains(sig, "/1/") {
				lookupMatches++
			}
			if d.n != len(want) {
				t.Fatalf("round %d: %d candidates kept, %d distinct signatures", round, d.n, len(want))
			}
		}
		for i, c := range d.cands[:d.n] {
			if got := templateSig(c); got != want[i] {
				t.Fatalf("round %d: candidate %d has signature %q, want %q", round, i, got, want[i])
			}
		}
	}
	if lookupMatches == 0 {
		t.Fatal("no duplicate candidate had a lookup slot")
	}
}

// TestSameRoundedMatchesText: sameRounded holds two probe counts equal
// exactly when strconv prints them alike to zero decimals.
func TestSameRoundedMatchesText(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), -0.4, 0.4, 0.5, 1.5, 2.5, -2.5, 3, 39.5, 40, 40.4999, 40.5, 41.5,
		math.Nextafter(0.5, 1), math.Nextafter(2.5, 0), 1e300, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, a := range vals {
		for _, b := range vals {
			want := strconv.FormatFloat(a, 'f', 0, 64) == strconv.FormatFloat(b, 'f', 0, 64)
			if got := sameRounded(a, b); got != want {
				t.Errorf("sameRounded(%v, %v) = %v, text says %v", a, b, got, want)
			}
		}
	}
}
