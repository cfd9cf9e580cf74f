// Package catalog models the metadata a cost-based optimizer consumes:
// tables, columns, per-column statistics (histograms with configurable
// Zipf skew), and index descriptors.
//
// The package is deliberately statistics-only: no tuples are ever
// materialized. Every consumer in this repository — the what-if
// optimizer, INUM, the index advisors — reads row counts, widths,
// histograms and index layouts, which is exactly the information a
// production what-if optimizer uses when it "fakes" hypothetical
// indexes (§2 of the CoPhy paper).
package catalog

import (
	"fmt"
	"sort"
	"strings"
)

// ColumnType enumerates the logical column types the engine understands.
// Types matter only through their byte widths and comparison semantics.
type ColumnType int

const (
	// TypeInt is a 64-bit integer column.
	TypeInt ColumnType = iota
	// TypeFloat is a 64-bit floating point column.
	TypeFloat
	// TypeString is a variable-length character column.
	TypeString
	// TypeDate is a day-granularity date column.
	TypeDate
)

// String returns the SQL-ish name of the type.
func (t ColumnType) String() string {
	switch t {
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "DOUBLE"
	case TypeString:
		return "VARCHAR"
	case TypeDate:
		return "DATE"
	default:
		return fmt.Sprintf("ColumnType(%d)", int(t))
	}
}

// Column describes one attribute of a table together with its statistics.
type Column struct {
	// Name is the column name, unique within its table.
	Name string
	// Type is the logical type of the column.
	Type ColumnType
	// Width is the average stored width in bytes.
	Width int
	// NDV is the number of distinct values.
	NDV int
	// Hist summarizes the value distribution. It is never nil after
	// the catalog is built.
	Hist *Histogram
}

// ColumnRef names a column within a specific table. It is the unit of
// reference used by queries, predicates and index keys.
type ColumnRef struct {
	Table  string
	Column string
}

// String renders the reference as "table.column".
func (r ColumnRef) String() string { return r.Table + "." + r.Column }

// Table describes a base relation: its cardinality, physical width and
// columns. Pages are derived from Rows and the per-row width.
type Table struct {
	// Name is the table name, unique within the catalog.
	Name string
	// Rows is the table cardinality.
	Rows int64
	// Cols holds the table's columns in declaration order.
	Cols []*Column
	// PK lists the primary-key column names in key order. The catalog
	// materializes a clustered primary-key index for every table with a
	// non-empty PK; that index forms the baseline configuration X0 of
	// the paper's evaluation.
	PK []string

	byName map[string]*Column
}

// PageSize is the size in bytes of one storage page. All I/O cost
// estimates are expressed in pages.
const PageSize = 8192

// pageFill is the assumed average page fill factor for heap and index
// pages.
const pageFill = 0.7

// Column returns the named column, or nil if it does not exist.
// Tables registered through Catalog.AddTable answer from a prebuilt
// map; unregistered tables fall back to a linear scan so that Column
// never mutates the table (lookups must be safe for concurrent use).
func (t *Table) Column(name string) *Column {
	if t.byName != nil {
		return t.byName[name]
	}
	for _, c := range t.Cols {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// buildColumnIndex precomputes the name→column map. Called once at
// registration time, before any concurrent readers exist.
func (t *Table) buildColumnIndex() {
	t.byName = make(map[string]*Column, len(t.Cols))
	for _, c := range t.Cols {
		t.byName[c.Name] = c
	}
}

// RowWidth returns the average stored row width in bytes.
func (t *Table) RowWidth() int {
	w := 8 // row header
	for _, c := range t.Cols {
		w += c.Width
	}
	return w
}

// Pages returns the number of heap pages occupied by the table.
func (t *Table) Pages() int64 {
	rowsPerPage := int64(float64(PageSize) * pageFill / float64(t.RowWidth()))
	if rowsPerPage < 1 {
		rowsPerPage = 1
	}
	p := (t.Rows + rowsPerPage - 1) / rowsPerPage
	if p < 1 {
		p = 1
	}
	return p
}

// Bytes returns the estimated heap size of the table in bytes.
func (t *Table) Bytes() int64 { return t.Pages() * PageSize }

// Catalog is the root metadata object: a set of tables plus the
// clustered primary-key indexes that every database ships with.
type Catalog struct {
	tables  map[string]*Table
	ordered []*Table
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// AddTable registers a table. It panics if a table with the same name
// already exists or if any column lacks a histogram, because both are
// programming errors in the schema builder rather than runtime
// conditions.
func (c *Catalog) AddTable(t *Table) {
	if _, dup := c.tables[t.Name]; dup {
		panic("catalog: duplicate table " + t.Name)
	}
	for _, col := range t.Cols {
		if col.Hist == nil {
			panic(fmt.Sprintf("catalog: column %s.%s has no histogram", t.Name, col.Name))
		}
		if col.NDV <= 0 {
			col.NDV = 1
		}
	}
	t.buildColumnIndex()
	c.tables[t.Name] = t
	c.ordered = append(c.ordered, t)
}

// Table returns the named table, or nil if absent.
func (c *Catalog) Table(name string) *Table { return c.tables[name] }

// Tables returns all tables in registration order. The returned slice
// must not be modified.
func (c *Catalog) Tables() []*Table { return c.ordered }

// PrimaryKeyIndexes returns the clustered primary-key index of every
// table that declares a PK, in table registration order — the baseline
// configuration X0 of the paper's perf metric: always present, free,
// and outside the storage budget.
func (c *Catalog) PrimaryKeyIndexes() []*Index {
	var out []*Index
	for _, t := range c.ordered {
		if len(t.PK) > 0 {
			out = append(out, &Index{Table: t.Name, Key: append([]string(nil), t.PK...), Clustered: true})
		}
	}
	return out
}

// TotalBytes returns the total heap size of all tables. The storage
// budget of the index-tuning problem is expressed as a fraction M of
// this quantity (§5.1 of the paper).
func (c *Catalog) TotalBytes() int64 {
	var sum int64
	for _, t := range c.ordered {
		sum += t.Bytes()
	}
	return sum
}

// Column resolves a column reference, returning the table and column.
// It returns an error if either does not exist.
func (c *Catalog) Column(ref ColumnRef) (*Table, *Column, error) {
	t := c.tables[ref.Table]
	if t == nil {
		return nil, nil, fmt.Errorf("catalog: unknown table %q", ref.Table)
	}
	col := t.Column(ref.Column)
	if col == nil {
		return nil, nil, fmt.Errorf("catalog: unknown column %q", ref.String())
	}
	return t, col, nil
}

// Index describes a (possibly hypothetical) secondary or clustered
// index. Indexes are the decision variables of the tuning problem: the
// candidate set S of the paper is a []*Index.
type Index struct {
	// Table is the indexed table. An index covers exactly one table
	// (the paper excludes join indexes).
	Table string
	// Key lists the key column names in key order.
	Key []string
	// Include lists non-key columns stored in the leaves (for
	// index-only plans). May be empty.
	Include []string
	// Clustered marks the index as the table's clustering index. At
	// most one clustered index per table may be selected; the
	// constraint compiler enforces this (Appendix E.3).
	Clustered bool
}

// ID returns a canonical identifier for the index, unique across all
// distinct index definitions. Two Index values with equal IDs are the
// same index.
func (ix *Index) ID() string {
	var b strings.Builder
	if ix.Clustered {
		b.WriteString("C:")
	}
	b.WriteString(ix.Table)
	b.WriteByte('(')
	b.WriteString(strings.Join(ix.Key, ","))
	b.WriteByte(')')
	if len(ix.Include) > 0 {
		b.WriteString(" INCLUDE(")
		b.WriteString(strings.Join(ix.Include, ","))
		b.WriteByte(')')
	}
	return b.String()
}

// String renders the index like a DDL fragment.
func (ix *Index) String() string {
	kind := "INDEX"
	if ix.Clustered {
		kind = "CLUSTERED INDEX"
	}
	s := fmt.Sprintf("%s ON %s(%s)", kind, ix.Table, strings.Join(ix.Key, ", "))
	if len(ix.Include) > 0 {
		s += fmt.Sprintf(" INCLUDE(%s)", strings.Join(ix.Include, ", "))
	}
	return s
}

// Covers reports whether the index stores every column in cols (as key
// or include), i.e. whether an index-only plan can answer a query that
// touches exactly cols.
func (ix *Index) Covers(cols []string) bool {
	for _, want := range cols {
		found := false
		for _, k := range ix.Key {
			if k == want {
				found = true
				break
			}
		}
		if !found {
			for _, inc := range ix.Include {
				if inc == want {
					found = true
					break
				}
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// KeyWidth returns the total byte width of the key columns given the
// owning table's column metadata.
func (ix *Index) KeyWidth(t *Table) int {
	w := 0
	for _, k := range ix.Key {
		if col := t.Column(k); col != nil {
			w += col.Width
		}
	}
	return w
}

// EntryWidth returns the average width in bytes of one leaf entry.
func (ix *Index) EntryWidth(t *Table) int { return ix.entryWidth(t, ix.KeyWidth(t)) }

// entryWidth is EntryWidth given the key width already computed.
func (ix *Index) entryWidth(t *Table, keyWidth int) int {
	if ix.Clustered {
		// A clustered index stores full rows in its leaves.
		return t.RowWidth()
	}
	w := keyWidth + 8 // row locator
	for _, inc := range ix.Include {
		if col := t.Column(inc); col != nil {
			w += col.Width
		}
	}
	return w
}

// Geometry is an index's page layout over its table: the leaf pages
// its entries fill and the levels a probe descends to reach a leaf. It
// is a pure function of the index definition and the table's
// statistics, so a caller that prices one index many times computes it
// once (Index.Geometry) and passes it along.
type Geometry struct {
	// LeafPages is the number of leaf pages.
	LeafPages int64
	// Height is the number of levels traversed to reach a leaf (at
	// least 1).
	Height int
}

// Geometry computes the index's page layout over t: the one
// computation behind Height and Bytes.
func (ix *Index) Geometry(t *Table) Geometry {
	keyWidth := ix.KeyWidth(t)
	perPage := int64(float64(PageSize) * pageFill / float64(ix.entryWidth(t, keyWidth)))
	if perPage < 1 {
		perPage = 1
	}
	leaf := (t.Rows + perPage - 1) / perPage
	if leaf < 1 {
		leaf = 1
	}
	fanout := int64(float64(PageSize) * pageFill / float64(keyWidth+12))
	if fanout < 2 {
		fanout = 2
	}
	h := 1
	for n := leaf; n > 1; n = (n + fanout - 1) / fanout {
		h++
		if h > 10 {
			break
		}
	}
	return Geometry{LeafPages: leaf, Height: h}
}

// Bytes returns the estimated total size of the index in bytes,
// counting leaf pages plus a small overhead for internal levels. This
// is the size(a) of the paper's storage constraints.
func (g Geometry) Bytes() int64 {
	leaf := g.LeafPages * PageSize
	return leaf + leaf/50 // ~2% internal-node overhead
}

// Height returns the number of non-leaf levels that must be traversed
// to reach a leaf (at least 1).
func (ix *Index) Height(t *Table) int { return ix.Geometry(t).Height }

// Bytes returns Geometry(t).Bytes(): the index's size(a).
func (ix *Index) Bytes(t *Table) int64 { return ix.Geometry(t).Bytes() }

// SortIndexes orders a slice of indexes by ID, yielding a deterministic
// presentation order for recommendations and tests. Each ID is built
// once, not once per comparison.
func SortIndexes(ixs []*Index) {
	type keyed struct {
		id string
		ix *Index
	}
	ks := make([]keyed, len(ixs))
	for i, ix := range ixs {
		ks[i] = keyed{ix.ID(), ix}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].id < ks[j].id })
	for i := range ks {
		ixs[i] = ks[i].ix
	}
}
