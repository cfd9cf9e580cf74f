package engine

import (
	"sort"

	"repro/internal/catalog"
)

// Config is an index configuration: the set X of (possibly
// hypothetical) indexes available to the optimizer during a what-if
// call.
type Config struct {
	byTable map[string][]*catalog.Index
	ids     map[string]*catalog.Index
}

// NewConfig builds a configuration from the given indexes, ignoring
// duplicates (same canonical ID).
func NewConfig(ixs ...*catalog.Index) *Config {
	c := &Config{byTable: make(map[string][]*catalog.Index), ids: make(map[string]*catalog.Index)}
	for _, ix := range ixs {
		c.Add(ix)
	}
	return c
}

// Add inserts an index if not already present.
func (c *Config) Add(ix *catalog.Index) {
	id := ix.ID()
	if _, dup := c.ids[id]; dup {
		return
	}
	c.ids[id] = ix
	c.byTable[ix.Table] = append(c.byTable[ix.Table], ix)
}

// Union returns a new configuration containing this one plus other.
// Either receiver or argument may be nil. Each table lists the
// receiver's indexes first, then other's new ones, each in its input's
// order, so the optimizer's ties break alike on every call.
func (c *Config) Union(other *Config) *Config {
	out := NewConfig()
	for _, in := range []*Config{c, other} {
		if in == nil {
			continue
		}
		for _, ixs := range in.byTable {
			for _, ix := range ixs {
				out.Add(ix)
			}
		}
	}
	return out
}

// OnTable returns the indexes available on the named table.
func (c *Config) OnTable(table string) []*catalog.Index {
	if c == nil {
		return nil
	}
	return c.byTable[table]
}

// Has reports whether the configuration contains the index.
func (c *Config) Has(ix *catalog.Index) bool {
	if c == nil {
		return false
	}
	_, ok := c.ids[ix.ID()]
	return ok
}

// Size returns the number of indexes.
func (c *Config) Size() int {
	if c == nil {
		return 0
	}
	return len(c.ids)
}

// Indexes returns the configuration's indexes sorted by ID.
func (c *Config) Indexes() []*catalog.Index {
	if c == nil {
		return nil
	}
	out := make([]*catalog.Index, 0, len(c.ids))
	for _, ix := range c.ids {
		out = append(out, ix)
	}
	catalog.SortIndexes(out)
	return out
}

// Bytes returns the total estimated size of the configuration's
// indexes — the left-hand side of the storage-budget constraint.
func (c *Config) Bytes(cat *catalog.Catalog) int64 {
	if c == nil {
		return 0
	}
	var sum int64
	for _, ix := range c.ids {
		if t := cat.Table(ix.Table); t != nil {
			sum += ix.Bytes(t)
		}
	}
	return sum
}

// IDs returns the sorted canonical IDs, handy in tests.
func (c *Config) IDs() []string {
	if c == nil {
		return nil
	}
	out := make([]string, 0, len(c.ids))
	for id := range c.ids {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
