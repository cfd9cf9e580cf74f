package experiments

import (
	"fmt"
	"sort"
)

// Runner is one experiment entry point.
type Runner func(Config) (*Report, error)

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

// Run executes one experiment by name.
func Run(name string, cfg Config) (*Report, error) {
	r, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return r(cfg)
}
