package tpch

import (
	"testing"

	"repro/internal/catalog"
)

func TestBuildSchemaShape(t *testing.T) {
	c := Build(Config{ScaleFactor: 1})
	if got := len(c.Tables()); got != 8 {
		t.Fatalf("table count = %d, want 8", got)
	}
	li := c.Table("lineitem")
	if li == nil {
		t.Fatal("lineitem missing")
	}
	if li.Rows != 6_000_000 {
		t.Fatalf("lineitem rows = %d, want 6000000 at SF 1", li.Rows)
	}
	if li.Column("l_shipdate") == nil {
		t.Fatal("l_shipdate missing")
	}
	// Cardinality ordering sanity: lineitem > orders > customer.
	if !(li.Rows > c.Table("orders").Rows && c.Table("orders").Rows > c.Table("customer").Rows) {
		t.Fatal("row-count ordering violated")
	}
}

func TestBuildScaleFactor(t *testing.T) {
	small := Build(Config{ScaleFactor: 0.01})
	if small.Table("lineitem").Rows != 60_000 {
		t.Fatalf("SF 0.01 lineitem rows = %d", small.Table("lineitem").Rows)
	}
	// NDV never exceeds row count.
	for _, tb := range small.Tables() {
		for _, col := range tb.Cols {
			if int64(col.NDV) > tb.Rows {
				t.Fatalf("%s.%s NDV %d > rows %d", tb.Name, col.Name, col.NDV, tb.Rows)
			}
		}
	}
	if zero := Build(Config{}); zero.Table("lineitem").Rows != 6_000_000 {
		t.Fatal("zero scale factor should default to 1")
	}
}

func TestBuildSkewChangesDistributions(t *testing.T) {
	flat := Build(Config{ScaleFactor: 0.1, Skew: 0})
	skew := Build(Config{ScaleFactor: 0.1, Skew: 2})
	fh := flat.Table("orders").Column("o_orderdate").Hist
	sh := skew.Table("orders").Column("o_orderdate").Hist
	if sh.RangeFrac(0, 0.05) <= fh.RangeFrac(0, 0.05) {
		t.Fatal("skewed histogram should concentrate mass at the hot end")
	}
	// Join keys stay uniform regardless of skew.
	fk := flat.Table("orders").Column("o_orderkey").Hist
	sk := skew.Table("orders").Column("o_orderkey").Hist
	d := sk.RangeFrac(0, 0.1) - fk.RangeFrac(0, 0.1)
	if d > 0.01 || d < -0.01 {
		t.Fatalf("key histograms should match under skew, delta=%v", d)
	}
}

func TestBaselineIndexes(t *testing.T) {
	c := Build(Config{ScaleFactor: 0.1})
	base := BaselineIndexes(c)
	if len(base) != 8 {
		t.Fatalf("baseline index count = %d, want 8", len(base))
	}
	seen := map[string]bool{}
	for _, ix := range base {
		if !ix.Clustered {
			t.Fatalf("baseline index %s must be clustered", ix.ID())
		}
		if seen[ix.Table] {
			t.Fatalf("duplicate baseline index for %s", ix.Table)
		}
		seen[ix.Table] = true
		tb := c.Table(ix.Table)
		if len(ix.Key) != len(tb.PK) {
			t.Fatalf("baseline key mismatch on %s", ix.Table)
		}
	}
}

func TestTotalBytesReasonable(t *testing.T) {
	c := Build(Config{ScaleFactor: 1})
	gb := float64(c.TotalBytes()) / (1 << 30)
	if gb < 0.5 || gb > 3 {
		t.Fatalf("SF-1 database = %.2f GiB, expected near 1 GiB", gb)
	}
}

func TestIndexSizeVsTable(t *testing.T) {
	c := Build(Config{ScaleFactor: 0.1})
	li := c.Table("lineitem")
	narrow := &catalog.Index{Table: "lineitem", Key: []string{"l_shipdate"}}
	if narrow.Bytes(li) >= li.Bytes() {
		t.Fatal("a single-column index must be smaller than its table")
	}
}
