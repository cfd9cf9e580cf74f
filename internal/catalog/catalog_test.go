package catalog

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func testTable() *Table {
	return &Table{
		Name: "t",
		Rows: 1_000_000,
		PK:   []string{"a"},
		Cols: []*Column{
			{Name: "a", Type: TypeInt, Width: 8, NDV: 1_000_000, Hist: NewUniformHistogram(1_000_000)},
			{Name: "b", Type: TypeInt, Width: 8, NDV: 100, Hist: NewZipf(100, 1)},
			{Name: "c", Type: TypeString, Width: 20, NDV: 5000, Hist: NewUniformHistogram(5000)},
		},
	}
}

func TestCatalogAddAndLookup(t *testing.T) {
	c := New()
	tb := testTable()
	c.AddTable(tb)
	if got := c.Table("t"); got != tb {
		t.Fatalf("Table(t) = %v, want the registered table", got)
	}
	if got := c.Table("missing"); got != nil {
		t.Fatalf("Table(missing) = %v, want nil", got)
	}
	if _, col, err := c.Column(ColumnRef{Table: "t", Column: "b"}); err != nil || col.Name != "b" {
		t.Fatalf("Column(t.b) = %v, %v", col, err)
	}
	if _, _, err := c.Column(ColumnRef{Table: "t", Column: "zz"}); err == nil {
		t.Fatal("Column(t.zz) should error")
	}
	if _, _, err := c.Column(ColumnRef{Table: "x", Column: "a"}); err == nil {
		t.Fatal("Column(x.a) should error")
	}
}

func TestCatalogDuplicateTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate table")
		}
	}()
	c := New()
	c.AddTable(testTable())
	c.AddTable(testTable())
}

func TestCatalogMissingHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on missing histogram")
		}
	}()
	c := New()
	c.AddTable(&Table{Name: "bad", Rows: 10, Cols: []*Column{{Name: "x", Width: 8, NDV: 10}}})
}

func TestTablePagesAndBytes(t *testing.T) {
	tb := testTable()
	if tb.RowWidth() != 8+8+8+20 {
		t.Fatalf("RowWidth = %d", tb.RowWidth())
	}
	if tb.Pages() <= 0 {
		t.Fatalf("Pages = %d, want > 0", tb.Pages())
	}
	if tb.Bytes() != tb.Pages()*PageSize {
		t.Fatalf("Bytes = %d, want Pages*PageSize", tb.Bytes())
	}
}

func TestIndexIDAndString(t *testing.T) {
	ix := &Index{Table: "t", Key: []string{"a", "b"}, Include: []string{"c"}}
	if ix.ID() != "t(a,b) INCLUDE(c)" {
		t.Fatalf("ID = %q", ix.ID())
	}
	cl := &Index{Table: "t", Key: []string{"a"}, Clustered: true}
	if cl.ID() != "C:t(a)" {
		t.Fatalf("clustered ID = %q", cl.ID())
	}
	if ix.ID() == (&Index{Table: "t", Key: []string{"a", "b"}}).ID() {
		t.Fatal("distinct definitions must have distinct IDs")
	}
}

func TestIndexCovers(t *testing.T) {
	ix := &Index{Table: "t", Key: []string{"a", "b"}, Include: []string{"c"}}
	if !ix.Covers([]string{"a", "c"}) {
		t.Fatal("should cover key+include columns")
	}
	if ix.Covers([]string{"a", "d"}) {
		t.Fatal("should not cover column d")
	}
	if !ix.Covers(nil) {
		t.Fatal("empty column set is always covered")
	}
}

func TestIndexSizes(t *testing.T) {
	tb := testTable()
	narrow := &Index{Table: "t", Key: []string{"b"}}
	wide := &Index{Table: "t", Key: []string{"b"}, Include: []string{"c"}}
	if narrow.Bytes(tb) >= wide.Bytes(tb) {
		t.Fatalf("narrow index (%d) should be smaller than wide (%d)", narrow.Bytes(tb), wide.Bytes(tb))
	}
	cl := &Index{Table: "t", Key: []string{"a"}, Clustered: true}
	if cl.EntryWidth(tb) != tb.RowWidth() {
		t.Fatal("clustered index stores full rows")
	}
	if narrow.Height(tb) < 1 {
		t.Fatal("height must be at least 1")
	}
}

func TestSortIndexesDeterministic(t *testing.T) {
	a := &Index{Table: "t", Key: []string{"a"}}
	b := &Index{Table: "t", Key: []string{"b"}}
	ixs := []*Index{b, a}
	SortIndexes(ixs)
	if ixs[0] != a || ixs[1] != b {
		t.Fatalf("sorted order wrong: %v", ixs)
	}
}

// TestSortIndexesMatchesPerComparisonIDs: sorting by IDs built once
// gives the very order, pointer for pointer, of a sort that builds both
// IDs in every comparison, duplicates (equal IDs, distinct pointers)
// included.
func TestSortIndexesMatchesPerComparisonIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	cols := []string{"a", "b", "c", "d"}
	for round := 0; round < 50; round++ {
		ixs := make([]*Index, rng.Intn(300))
		for i := range ixs {
			ix := &Index{Table: cols[rng.Intn(2)], Key: []string{cols[rng.Intn(4)]}, Clustered: rng.Intn(4) == 0}
			if rng.Intn(2) == 0 {
				ix.Include = []string{cols[rng.Intn(4)]}
			}
			ixs[i] = ix
		}
		want := append([]*Index(nil), ixs...)
		sort.Slice(want, func(i, j int) bool { return want[i].ID() < want[j].ID() })
		SortIndexes(ixs)
		for i := range ixs {
			if ixs[i] != want[i] {
				t.Fatalf("round %d: position %d holds %s, the per-comparison sort %s", round, i, ixs[i].ID(), want[i].ID())
			}
		}
	}
}

func TestHistogramUniform(t *testing.T) {
	h := NewUniformHistogram(1000)
	if math.Abs(h.RangeFrac(0, 1)-1) > 1e-9 {
		t.Fatalf("full range = %v, want 1", h.RangeFrac(0, 1))
	}
	if frac := h.RangeFrac(0.2, 0.3); math.Abs(frac-0.1) > 0.02 {
		t.Fatalf("uniform 10%% range = %v", frac)
	}
	if eq := h.EqFrac(); math.Abs(eq-1.0/1000) > 1e-4 {
		t.Fatalf("uniform EqFrac = %v, want ~0.001", eq)
	}
}

func TestHistogramZipfSkew(t *testing.T) {
	h := NewZipf(1000, 2)
	hot := h.RangeFrac(0, 0.1)
	cold := h.RangeFrac(0.9, 1.0)
	if hot <= cold*5 {
		t.Fatalf("zipf(2): hot range %v should dominate cold range %v", hot, cold)
	}
	if h.EqFrac() <= NewUniformHistogram(1000).EqFrac() {
		t.Fatal("skewed equality selectivity must exceed uniform 1/NDV")
	}
	if h.TopFrac() <= 0 || h.TopFrac() > 1 {
		t.Fatalf("TopFrac = %v", h.TopFrac())
	}
}

func TestHistogramEqFracAt(t *testing.T) {
	h := NewZipf(1000, 2)
	hot := h.EqFracAt(0.001, 1000)
	cold := h.EqFracAt(0.999, 1000)
	if hot <= cold {
		t.Fatalf("hot position (%v) should be more selective than cold (%v)", hot, cold)
	}
	u := NewUniformHistogram(100)
	if v := u.EqFracAt(0.5, 100); v <= 0 || v > 1 {
		t.Fatalf("EqFracAt out of range: %v", v)
	}
}

func TestHistogramCDFMonotonic(t *testing.T) {
	for _, z := range []float64{0, 0.5, 1, 2} {
		h := NewZipf(10_000, z)
		prev := 0.0
		for v := 0.0; v <= 1.0; v += 0.01 {
			f := h.LessFrac(v)
			if f < prev-1e-12 {
				t.Fatalf("z=%v: CDF not monotonic at %v: %v < %v", z, v, f, prev)
			}
			prev = f
		}
		if math.Abs(h.LessFrac(1)-1) > 1e-9 {
			t.Fatalf("z=%v: CDF(1) = %v", z, h.LessFrac(1))
		}
	}
}

func TestHistogramRangeAdditivity(t *testing.T) {
	// Property: RangeFrac(a,c) == RangeFrac(a,b) + RangeFrac(b,c).
	h := NewZipf(5000, 1)
	f := func(a, b, c float64) bool {
		a, b, c = math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1)), math.Abs(math.Mod(c, 1))
		if a > b {
			a, b = b, a
		}
		if b > c {
			b, c = c, b
		}
		if a > b {
			a, b = b, a
		}
		whole := h.RangeFrac(a, c)
		split := h.RangeFrac(a, b) + h.RangeFrac(b, c)
		return math.Abs(whole-split) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramLargeNDVTailApprox(t *testing.T) {
	// NDV beyond the exact-computation cutoff exercises the integral
	// tail approximation; the histogram must still normalize.
	h := NewZipf(10_000_000, 1)
	if math.Abs(h.RangeFrac(0, 1)-1) > 1e-6 {
		t.Fatalf("total mass = %v, want 1", h.RangeFrac(0, 1))
	}
	if h.EqFrac() <= 0 {
		t.Fatal("EqFrac must be positive")
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewZipf(1, 0)
	if math.Abs(h.RangeFrac(0, 1)-1) > 1e-9 {
		t.Fatal("single-value histogram must carry all mass")
	}
	h0 := NewZipf(0, 0) // clamped to 1 value
	if h0.EqFrac() <= 0 {
		t.Fatal("clamped histogram must have positive equality selectivity")
	}
}
