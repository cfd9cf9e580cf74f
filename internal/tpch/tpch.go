// Package tpch builds the TPC-H schema and statistics at a given scale
// factor and skew, standing in for the tpcdskew data generator used in
// the paper's evaluation (§5.1). No tuples are materialized; the
// optimizer consumes only statistics, so per-column Zipf histograms
// carry all the information the original skewed database contributes
// to the experiments.
package tpch

import (
	"repro/internal/catalog"
)

// Config controls schema generation.
type Config struct {
	// ScaleFactor is the TPC-H scale factor; 1.0 corresponds to the
	// paper's 1 GB database.
	ScaleFactor float64
	// Skew is the Zipf parameter z applied to the non-key columns.
	// The paper evaluates z = 0 (uniform), z = 1 and z = 2.
	Skew float64
}

// colSpec declares one column of the synthetic schema.
type colSpec struct {
	name  string
	typ   catalog.ColumnType
	width int
	// ndvPerRow, if > 0, sets NDV = max(1, rows*ndvPerRow); otherwise
	// ndv is taken literally.
	ndvPerRow float64
	ndv       int
	// key columns keep uniform histograms regardless of skew, like
	// tpcdskew which never skews the join keys' existence.
	key bool
}

type tableSpec struct {
	name    string
	rowsPer float64 // rows per unit scale factor
	pk      []string
	cols    []colSpec
}

// specs is the TPC-H schema with per-column cardinalities following the
// TPC-H specification closely enough for realistic selectivities.
var specs = []tableSpec{
	{
		name: "region", rowsPer: 5, pk: []string{"r_regionkey"},
		cols: []colSpec{
			{name: "r_regionkey", typ: catalog.TypeInt, width: 8, ndv: 5, key: true},
			{name: "r_name", typ: catalog.TypeString, width: 12, ndv: 5},
			{name: "r_comment", typ: catalog.TypeString, width: 80, ndv: 5},
		},
	},
	{
		name: "nation", rowsPer: 25, pk: []string{"n_nationkey"},
		cols: []colSpec{
			{name: "n_nationkey", typ: catalog.TypeInt, width: 8, ndv: 25, key: true},
			{name: "n_name", typ: catalog.TypeString, width: 16, ndv: 25},
			{name: "n_regionkey", typ: catalog.TypeInt, width: 8, ndv: 5},
			{name: "n_comment", typ: catalog.TypeString, width: 80, ndv: 25},
		},
	},
	{
		name: "supplier", rowsPer: 10_000, pk: []string{"s_suppkey"},
		cols: []colSpec{
			{name: "s_suppkey", typ: catalog.TypeInt, width: 8, ndvPerRow: 1, key: true},
			{name: "s_name", typ: catalog.TypeString, width: 20, ndvPerRow: 1},
			{name: "s_address", typ: catalog.TypeString, width: 30, ndvPerRow: 1},
			{name: "s_nationkey", typ: catalog.TypeInt, width: 8, ndv: 25},
			{name: "s_phone", typ: catalog.TypeString, width: 15, ndvPerRow: 1},
			{name: "s_acctbal", typ: catalog.TypeFloat, width: 8, ndvPerRow: 0.9},
			{name: "s_comment", typ: catalog.TypeString, width: 60, ndvPerRow: 1},
		},
	},
	{
		name: "part", rowsPer: 200_000, pk: []string{"p_partkey"},
		cols: []colSpec{
			{name: "p_partkey", typ: catalog.TypeInt, width: 8, ndvPerRow: 1, key: true},
			{name: "p_name", typ: catalog.TypeString, width: 35, ndvPerRow: 1},
			{name: "p_mfgr", typ: catalog.TypeString, width: 25, ndv: 5},
			{name: "p_brand", typ: catalog.TypeString, width: 10, ndv: 25},
			{name: "p_type", typ: catalog.TypeString, width: 25, ndv: 150},
			{name: "p_size", typ: catalog.TypeInt, width: 8, ndv: 50},
			{name: "p_container", typ: catalog.TypeString, width: 10, ndv: 40},
			{name: "p_retailprice", typ: catalog.TypeFloat, width: 8, ndvPerRow: 0.5},
			{name: "p_comment", typ: catalog.TypeString, width: 20, ndvPerRow: 1},
		},
	},
	{
		name: "partsupp", rowsPer: 800_000, pk: []string{"ps_partkey", "ps_suppkey"},
		cols: []colSpec{
			{name: "ps_partkey", typ: catalog.TypeInt, width: 8, ndvPerRow: 0.25, key: true},
			{name: "ps_suppkey", typ: catalog.TypeInt, width: 8, ndvPerRow: 0.0125, key: true},
			{name: "ps_availqty", typ: catalog.TypeInt, width: 8, ndv: 10_000},
			{name: "ps_supplycost", typ: catalog.TypeFloat, width: 8, ndvPerRow: 0.12},
			{name: "ps_comment", typ: catalog.TypeString, width: 120, ndvPerRow: 1},
		},
	},
	{
		name: "customer", rowsPer: 150_000, pk: []string{"c_custkey"},
		cols: []colSpec{
			{name: "c_custkey", typ: catalog.TypeInt, width: 8, ndvPerRow: 1, key: true},
			{name: "c_name", typ: catalog.TypeString, width: 20, ndvPerRow: 1},
			{name: "c_address", typ: catalog.TypeString, width: 30, ndvPerRow: 1},
			{name: "c_nationkey", typ: catalog.TypeInt, width: 8, ndv: 25},
			{name: "c_phone", typ: catalog.TypeString, width: 15, ndvPerRow: 1},
			{name: "c_acctbal", typ: catalog.TypeFloat, width: 8, ndvPerRow: 0.9},
			{name: "c_mktsegment", typ: catalog.TypeString, width: 10, ndv: 5},
			{name: "c_comment", typ: catalog.TypeString, width: 70, ndvPerRow: 1},
		},
	},
	{
		name: "orders", rowsPer: 1_500_000, pk: []string{"o_orderkey"},
		cols: []colSpec{
			{name: "o_orderkey", typ: catalog.TypeInt, width: 8, ndvPerRow: 1, key: true},
			{name: "o_custkey", typ: catalog.TypeInt, width: 8, ndvPerRow: 0.066},
			{name: "o_orderstatus", typ: catalog.TypeString, width: 1, ndv: 3},
			{name: "o_totalprice", typ: catalog.TypeFloat, width: 8, ndvPerRow: 0.9},
			{name: "o_orderdate", typ: catalog.TypeDate, width: 4, ndv: 2406},
			{name: "o_orderpriority", typ: catalog.TypeString, width: 15, ndv: 5},
			{name: "o_clerk", typ: catalog.TypeString, width: 15, ndvPerRow: 0.00066},
			{name: "o_shippriority", typ: catalog.TypeInt, width: 8, ndv: 1},
			{name: "o_comment", typ: catalog.TypeString, width: 49, ndvPerRow: 1},
		},
	},
	{
		name: "lineitem", rowsPer: 6_000_000, pk: []string{"l_orderkey", "l_linenumber"},
		cols: []colSpec{
			{name: "l_orderkey", typ: catalog.TypeInt, width: 8, ndvPerRow: 0.25, key: true},
			{name: "l_partkey", typ: catalog.TypeInt, width: 8, ndvPerRow: 0.033},
			{name: "l_suppkey", typ: catalog.TypeInt, width: 8, ndvPerRow: 0.0016},
			{name: "l_linenumber", typ: catalog.TypeInt, width: 8, ndv: 7, key: true},
			{name: "l_quantity", typ: catalog.TypeInt, width: 8, ndv: 50},
			{name: "l_extendedprice", typ: catalog.TypeFloat, width: 8, ndvPerRow: 0.15},
			{name: "l_discount", typ: catalog.TypeFloat, width: 8, ndv: 11},
			{name: "l_tax", typ: catalog.TypeFloat, width: 8, ndv: 9},
			{name: "l_returnflag", typ: catalog.TypeString, width: 1, ndv: 3},
			{name: "l_linestatus", typ: catalog.TypeString, width: 1, ndv: 2},
			{name: "l_shipdate", typ: catalog.TypeDate, width: 4, ndv: 2526},
			{name: "l_commitdate", typ: catalog.TypeDate, width: 4, ndv: 2466},
			{name: "l_receiptdate", typ: catalog.TypeDate, width: 4, ndv: 2554},
			{name: "l_shipinstruct", typ: catalog.TypeString, width: 25, ndv: 4},
			{name: "l_shipmode", typ: catalog.TypeString, width: 10, ndv: 7},
			{name: "l_comment", typ: catalog.TypeString, width: 27, ndvPerRow: 1},
		},
	},
}

// Build constructs the TPC-H catalog for cfg. Every table receives a
// clustered primary-key index implicitly via its PK declaration; the
// baseline configuration of the evaluation (X0) consists of exactly
// those indexes (see BaselineIndexes).
func Build(cfg Config) *catalog.Catalog {
	if cfg.ScaleFactor <= 0 {
		cfg.ScaleFactor = 1
	}
	c := catalog.New()
	for _, ts := range specs {
		rows := int64(ts.rowsPer * cfg.ScaleFactor)
		if rows < 1 {
			rows = 1
		}
		t := &catalog.Table{Name: ts.name, Rows: rows, PK: ts.pk}
		for _, cs := range ts.cols {
			ndv := cs.ndv
			if cs.ndvPerRow > 0 {
				ndv = int(float64(rows) * cs.ndvPerRow)
			}
			if ndv < 1 {
				ndv = 1
			}
			if int64(ndv) > rows {
				ndv = int(rows)
			}
			z := cfg.Skew
			if cs.key {
				// Join keys keep uniform existence; skew applies to
				// attribute value distributions, as in tpcdskew.
				z = 0
			}
			t.Cols = append(t.Cols, &catalog.Column{
				Name:  cs.name,
				Type:  cs.typ,
				Width: cs.width,
				NDV:   ndv,
				Hist:  catalog.NewZipf(ndv, z),
			})
		}
		c.AddTable(t)
	}
	return c
}

// BaselineIndexes returns the clustered primary-key indexes that form
// the baseline configuration X0 of the paper's perf metric.
func BaselineIndexes(c *catalog.Catalog) []*catalog.Index {
	return c.PrimaryKeyIndexes()
}
