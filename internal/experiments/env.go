// Package experiments regenerates every table and figure of the
// paper's evaluation (§5 and Appendix C): the workload generators, the
// four advisors, the parameter sweeps and the report formatting. Each
// ExpXxx function is self-contained and returns a Report whose rows
// mirror the rows/series the paper prints; `go run ./cmd/experiments`
// drives them. Recording paper-versus-measured values as checked claims
// is ROADMAP item 6(b).
//
// Absolute times differ from the paper (different hardware, simulated
// substrate); the reproduction targets the *shape*: who wins, by
// roughly what factor, where the breakdowns concentrate.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// Config scales the experiments. Scale multiplies the paper's workload
// sizes (250/500/1000); 1.0 reproduces the paper's axes, smaller
// values run proportionally lighter instances for CI.
type Config struct {
	// Scale multiplies workload sizes (default 1.0).
	Scale float64
	// Seed drives workload generation.
	Seed int64
	// GapTol is the solver stopping gap (paper default 5%).
	GapTol float64
}

// Defaults fills zero fields.
func (c Config) defaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.GapTol <= 0 {
		c.GapTol = 0.05
	}
	return c
}

// size scales one of the paper's workload sizes, keeping at least 20
// statements.
func (c Config) size(paper int) int {
	n := int(float64(paper) * c.Scale)
	if n < 20 {
		n = 20
	}
	return n
}

// Report is one regenerated table or figure.
type Report struct {
	// ID is the paper artifact ("Table 1", "Figure 5", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Header names the columns.
	Header []string
	// Rows holds the data.
	Rows [][]string
	// Notes records paper-expectation reminders and caveats.
	Notes []string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for i, wd := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", wd))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// env is one simulated system: catalog + engine + baseline X0.
type env struct {
	cat  *catalog.Catalog
	eng  *engine.Engine
	base *engine.Config
}

// newEnv builds the environment for a skew level and cost profile.
func newEnv(skew float64, prof engine.Profile) *env {
	cat := tpch.Build(tpch.Config{ScaleFactor: 1, Skew: skew})
	eng := engine.New(cat, prof)
	return &env{
		cat:  cat,
		eng:  eng,
		base: engine.NewConfig(tpch.BaselineIndexes(cat)...),
	}
}

// perf returns the paper's effectiveness metric (§5.1):
// 1 − cost(X* ∪ X0, W)/cost(X0, W), computed against the what-if
// optimizer's ground truth (not the advisor's approximation).
func (e *env) perf(w *workload.Workload, ixs []*catalog.Index) (float64, error) {
	baseCost, err := e.eng.WorkloadCost(w, e.base)
	if err != nil {
		return 0, err
	}
	cfg := e.base.Union(engine.NewConfig(ixs...))
	cost, err := e.eng.WorkloadCost(w, cfg)
	if err != nil {
		return 0, err
	}
	return 1 - cost/baseCost, nil
}

// cophyAdvisor builds a CoPhy advisor with the experiment defaults.
func (e *env) cophyAdvisor(cfg Config) *cophy.Advisor {
	return cophy.NewAdvisor(e.cat, e.eng, cophy.Options{
		GapTol:    cfg.GapTol,
		RootIters: 160,
		MaxNodes:  32,
	})
}

// hom generates the homogeneous workload at a paper size.
func (cfg Config) hom(paperSize int) *workload.Workload {
	w := workload.Hom(workload.HomConfig{Queries: cfg.size(paperSize), Seed: cfg.Seed})
	w.Name = fmt.Sprintf("W_hom_%d", paperSize)
	return w
}

// het generates the heterogeneous workload at a paper size.
func (cfg Config) het(paperSize int) *workload.Workload {
	w := workload.Het(workload.HetConfig{Queries: cfg.size(paperSize), Seed: cfg.Seed})
	w.Name = fmt.Sprintf("W_het_%d", paperSize)
	return w
}

// budget converts the paper's budget fraction M into bytes.
func (e *env) budget(m float64) float64 { return m * float64(e.cat.TotalBytes()) }

func secs(d time.Duration) string { return fmt.Sprintf("%.2fs", d.Seconds()) }

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

func ratio(v float64) string { return fmt.Sprintf("%.2f", v) }
