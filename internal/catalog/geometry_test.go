package catalog_test

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/cophy"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// The ref* functions restate the index layout one quantity at a time,
// each recomputing every width it needs: the independent reference the
// single Geometry computation is pinned to.

func refKeyWidth(ix *catalog.Index, t *catalog.Table) int {
	w := 0
	for _, k := range ix.Key {
		if col := t.Column(k); col != nil {
			w += col.Width
		}
	}
	return w
}

func refEntryWidth(ix *catalog.Index, t *catalog.Table) int {
	w := refKeyWidth(ix, t) + 8
	for _, inc := range ix.Include {
		if col := t.Column(inc); col != nil {
			w += col.Width
		}
	}
	if ix.Clustered {
		w = t.RowWidth()
	}
	return w
}

func refLeafPages(ix *catalog.Index, t *catalog.Table) int64 {
	perPage := int64(float64(catalog.PageSize) * 0.7 / float64(refEntryWidth(ix, t)))
	if perPage < 1 {
		perPage = 1
	}
	p := (t.Rows + perPage - 1) / perPage
	if p < 1 {
		p = 1
	}
	return p
}

func refHeight(ix *catalog.Index, t *catalog.Table) int {
	fanout := int64(float64(catalog.PageSize) * 0.7 / float64(refKeyWidth(ix, t)+12))
	if fanout < 2 {
		fanout = 2
	}
	h := 1
	for n := refLeafPages(ix, t); n > 1; n = (n + fanout - 1) / fanout {
		h++
		if h > 10 {
			break
		}
	}
	return h
}

func refBytes(ix *catalog.Index, t *catalog.Table) int64 {
	leaf := refLeafPages(ix, t) * catalog.PageSize
	return leaf + leaf/50
}

// TestGeometryMatchesPerQuantityLayout pins Index.Geometry — the one
// computation behind Height and Bytes, which the γ kernel is handed
// once per candidate — to the layout recomputed quantity by
// quantity, for every candidate CGen yields on hom-1000 and het-500 and
// for every clustered primary key, at two scale factors.
func TestGeometryMatchesPerQuantityLayout(t *testing.T) {
	hom := workload.Hom(workload.HomConfig{Queries: 1000, Seed: 42})
	het := workload.Het(workload.HetConfig{Queries: 500, Seed: 42})
	for _, sf := range []float64{1, 0.05} {
		cat := tpch.Build(tpch.Config{ScaleFactor: sf})
		ixs := cat.PrimaryKeyIndexes()
		for _, w := range []*workload.Workload{hom, het} {
			ixs = append(ixs, cophy.Candidates(cat, w, cophy.CGenOptions{Covering: true})...)
		}
		clustered := 0
		for _, ix := range ixs {
			tb := cat.Table(ix.Table)
			g := ix.Geometry(tb)
			if g.LeafPages != refLeafPages(ix, tb) || g.Height != refHeight(ix, tb) || g.Bytes() != refBytes(ix, tb) {
				t.Fatalf("sf %v, %s: geometry %+v (%d bytes), per-quantity layout %d leaf pages, height %d, %d bytes",
					sf, ix.ID(), g, g.Bytes(), refLeafPages(ix, tb), refHeight(ix, tb), refBytes(ix, tb))
			}
			if ix.Height(tb) != g.Height || ix.Bytes(tb) != g.Bytes() {
				t.Fatalf("sf %v, %s: Height/Bytes disagree with Geometry", sf, ix.ID())
			}
			if ix.Clustered {
				clustered++
			}
		}
		if len(ixs) < 3000 || clustered == 0 {
			t.Fatalf("sf %v: degenerate coverage: %d indexes, %d clustered", sf, len(ixs), clustered)
		}
	}
}
