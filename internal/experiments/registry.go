package experiments

import (
	"fmt"
	"sort"
)

// Grid holds the configuration the experiments run at and the runs
// they share: each distinct cell runs once, however many reports read
// it. A Grid is not safe for concurrent use.
type Grid struct {
	cfg   Config
	cells map[cell]outcome
	ilps  map[ilpCell]ilpOutcome
}

// NewGrid returns an empty grid for cfg.
func NewGrid(cfg Config) *Grid {
	return &Grid{cfg: cfg.defaults(), cells: map[cell]outcome{}, ilps: map[ilpCell]ilpOutcome{}}
}

// Runs returns the number of CoPhy+tool runs the grid has made: one per
// distinct cell the commercial-tool reports have read.
func (g *Grid) Runs() int { return len(g.cells) }

// memo returns m[k], filling it with run the first time k is asked for.
func memo[K comparable, V any](m map[K]V, k K, run func() (V, error)) (V, error) {
	if v, ok := m[k]; ok {
		return v, nil
	}
	v, err := run()
	if err == nil {
		m[k] = v
	}
	return v, err
}

// Runner is one experiment entry point.
type Runner func(*Grid) (*Report, error)

// registry maps experiment names to runners.
var registry = map[string]Runner{
	"table1":   ExpTable1,
	"figure4":  ExpFigure4,
	"figure5":  ExpFigure5,
	"figure6a": ExpFigure6a,
	"figure6b": ExpFigure6b,
	"figure6c": ExpFigure6c,
	"figure7":  ExpFigure7,
	"figure8":  ExpFigure8,
	"figure9":  ExpFigure9,
	"figure10": ExpFigure10,
	"skewz1":   ExpSkewZ1,
}

// Names returns the registered experiment names in run order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by name on the grid.
func (g *Grid) Run(name string) (*Report, error) {
	r, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return r(g)
}
