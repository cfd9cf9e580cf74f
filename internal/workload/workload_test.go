package workload

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
)

func TestHomGeneratorDeterministic(t *testing.T) {
	a := Hom(HomConfig{Queries: 50, Seed: 1})
	b := Hom(HomConfig{Queries: 50, Seed: 1})
	if a.Size() != 50 || b.Size() != 50 {
		t.Fatalf("sizes = %d, %d", a.Size(), b.Size())
	}
	for i := range a.Statements {
		if a.Statements[i].String() != b.Statements[i].String() {
			t.Fatalf("statement %d differs across same-seed runs", i)
		}
	}
	c := Hom(HomConfig{Queries: 50, Seed: 2})
	same := 0
	for i := range a.Statements {
		if a.Statements[i].String() == c.Statements[i].String() {
			same++
		}
	}
	if same == 50 {
		t.Fatal("different seeds should produce different constants")
	}
}

func TestHomTemplateCoverage(t *testing.T) {
	w := Hom(HomConfig{Queries: 100, Seed: 3})
	seen := map[string]int{}
	for _, s := range w.Statements {
		seen[s.Query.Template]++
	}
	if len(seen) != 15 {
		t.Fatalf("distinct templates = %d, want 15", len(seen))
	}
}

func TestHetGeneratorDiversity(t *testing.T) {
	w := Het(HetConfig{Queries: 100, Seed: 4})
	if w.Size() != 100 {
		t.Fatalf("size = %d", w.Size())
	}
	shapes := map[string]bool{}
	for _, s := range w.Statements {
		q := s.Query
		key := strings.Join(q.Tables, ",") + "|" + q.String()
		shapes[key] = true
		if len(q.Tables) == 0 || len(q.Select) == 0 {
			t.Fatalf("degenerate query %s", q.ID)
		}
		// Joins must connect referenced tables only.
		for _, j := range q.Joins {
			if !q.References(j.Left.Table) || !q.References(j.Right.Table) {
				t.Fatalf("%s: join %v references absent table", q.ID, j)
			}
		}
	}
	if len(shapes) < 80 {
		t.Fatalf("heterogeneous workload has only %d distinct shapes", len(shapes))
	}
}

func TestHetJoinsConnected(t *testing.T) {
	w := Het(HetConfig{Queries: 200, Seed: 5})
	for _, s := range w.Statements {
		q := s.Query
		if len(q.Tables) == 1 {
			continue
		}
		// Union-find over join edges: all tables must be connected.
		parent := map[string]string{}
		var find func(string) string
		find = func(x string) string {
			if parent[x] == "" || parent[x] == x {
				parent[x] = x
				return x
			}
			r := find(parent[x])
			parent[x] = r
			return r
		}
		for _, j := range q.Joins {
			parent[find(j.Left.Table)] = find(j.Right.Table)
		}
		root := find(q.Tables[0])
		for _, tb := range q.Tables[1:] {
			if find(tb) != root {
				t.Fatalf("%s: disconnected table %s", q.ID, tb)
			}
		}
	}
}

func TestUpdateGeneration(t *testing.T) {
	w := Hom(HomConfig{Queries: 100, UpdateFraction: 0.2, Seed: 6})
	ups := w.Updates()
	if len(ups) != 20 {
		t.Fatalf("updates = %d, want 20", len(ups))
	}
	if w.Size() != 120 {
		t.Fatalf("total = %d, want 120", w.Size())
	}
	for _, s := range ups {
		u := s.Update
		if len(u.SetCols) == 0 || len(u.Where) == 0 {
			t.Fatalf("degenerate update %s", u.ID)
		}
		shell := u.Shell()
		if len(shell.Tables) != 1 || shell.Tables[0] != u.Table {
			t.Fatalf("shell tables = %v", shell.Tables)
		}
		if len(shell.Preds) != len(u.Where) {
			t.Fatal("shell must carry the update's predicates")
		}
	}
}

// TestUpdateShellIsOneQuery: an update's query shell is one *Query for
// the update's life, whichever goroutine asks first, so state kept per
// query finds it again in every snapshot of the workload.
func TestUpdateShellIsOneQuery(t *testing.T) {
	w := Hom(HomConfig{Queries: 10, UpdateFraction: 0.5, Seed: 7})
	u := w.Updates()[0].Update
	shells := make([]*Query, 8)
	var wg sync.WaitGroup
	for g := range shells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shells[g] = u.Shell()
		}()
	}
	wg.Wait()
	for _, sh := range shells {
		if sh != shells[0] {
			t.Fatal("concurrent Shell calls returned different queries")
		}
	}
	for _, st := range w.Queries() {
		if st.Query.ID == u.ID+"#shell" && st.Query != shells[0] {
			t.Fatal("Queries wraps a different shell than Shell returns")
		}
	}
}

func TestUpdateAffects(t *testing.T) {
	u := &Update{Table: "lineitem", SetCols: []string{"l_quantity"}}
	if !u.Affects(&catalog.Index{Table: "lineitem", Key: []string{"l_quantity"}}) {
		t.Fatal("key column update must affect index")
	}
	if !u.Affects(&catalog.Index{Table: "lineitem", Key: []string{"l_shipdate"}, Include: []string{"l_quantity"}}) {
		t.Fatal("include column update must affect index")
	}
	if u.Affects(&catalog.Index{Table: "lineitem", Key: []string{"l_shipdate"}}) {
		t.Fatal("unrelated index must not be affected")
	}
	if u.Affects(&catalog.Index{Table: "orders", Key: []string{"l_quantity"}}) {
		t.Fatal("index on another table must not be affected")
	}
}

func TestQueryColumnsOf(t *testing.T) {
	w := Hom(HomConfig{Queries: 15, Seed: 7})
	for _, s := range w.Statements {
		q := s.Query
		for _, tb := range q.Tables {
			cols := q.ColumnsOf(tb)
			seen := map[string]bool{}
			for _, c := range cols {
				if seen[c] {
					t.Fatalf("%s: duplicate column %s.%s", q.ID, tb, c)
				}
				seen[c] = true
			}
		}
		if cols := q.ColumnsOf("region"); q.References("region") == (len(cols) == 0) && len(q.Tables) > 0 {
			// Only check consistency: unreferenced tables yield no columns.
			if !q.References("region") && len(cols) != 0 {
				t.Fatalf("%s: columns for unreferenced table", q.ID)
			}
		}
	}
}

func TestQueriesIncludesUpdateShells(t *testing.T) {
	w := Hom(HomConfig{Queries: 10, UpdateFraction: 0.5, Seed: 8})
	qs := w.Queries()
	if len(qs) != 15 {
		t.Fatalf("Queries() = %d, want 10 selects + 5 shells", len(qs))
	}
	shells := 0
	for _, s := range qs {
		if strings.HasSuffix(s.Query.ID, "#shell") {
			shells++
		}
	}
	if shells != 5 {
		t.Fatalf("shells = %d, want 5", shells)
	}
}

func TestStatementStringRendering(t *testing.T) {
	w := Hom(HomConfig{Queries: 15, UpdateFraction: 0.1, Seed: 9})
	for _, s := range w.Statements {
		str := s.String()
		if s.IsUpdate() {
			if !strings.HasPrefix(str, "UPDATE ") {
				t.Fatalf("update renders as %q", str)
			}
		} else if !strings.HasPrefix(str, "SELECT ") {
			t.Fatalf("query renders as %q", str)
		}
	}
}

func TestPredicateString(t *testing.T) {
	p := Predicate{Col: catalog.ColumnRef{Table: "t", Column: "c"}, Op: OpRange, Lo: 0.1, Hi: 0.2}
	if got := p.String(); !strings.Contains(got, "BETWEEN") {
		t.Fatalf("range predicate renders as %q", got)
	}
	eq := Predicate{Col: catalog.ColumnRef{Table: "t", Column: "c"}, Op: OpEq, Lo: 0.5}
	if got := eq.String(); !strings.Contains(got, "=") {
		t.Fatalf("eq predicate renders as %q", got)
	}
}

func TestTotalWeight(t *testing.T) {
	w := Hom(HomConfig{Queries: 10, Seed: 10})
	if w.TotalWeight() != 10 {
		t.Fatalf("TotalWeight = %v", w.TotalWeight())
	}
}

func TestTemplatesList(t *testing.T) {
	if got := len(Templates()); got != 15 {
		t.Fatalf("Templates() = %d, want 15", got)
	}
}
