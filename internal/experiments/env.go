// Package experiments regenerates every table and figure of the
// paper's evaluation (§5 and Appendix C): the workload generators, the
// four advisors, the parameter sweeps and the report formatting. Each
// ExpXxx function returns a Report whose rows mirror the rows/series
// the paper prints; `go run ./cmd/experiments` drives them. The
// experiments share one Grid: a CoPhy-vs-tool or CoPhy-vs-ILP run that
// several reports read runs once. A comparison report states the
// paper's quality claims as predicates over its runs and records
// whether each holds (Report.Claims).
//
// Absolute times differ from the paper (different hardware, simulated
// substrate); the reproduction targets the *shape*: who wins, by
// roughly what factor, where the breakdowns concentrate.
package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"
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
	// Claims holds the paper's claims about this report, checked
	// against the measured runs.
	Claims []Claim
}

// Claim is one of the paper's statements and whether the measured runs
// bear it out.
type Claim struct {
	Text  string
	Holds bool
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	rule := make([]string, len(r.Header))
	for i, h := range r.Header {
		rule[i] = strings.Repeat("-", len(h))
	}
	for _, cells := range append([][]string{r.Header, rule}, r.Rows...) {
		fmt.Fprintln(tw, strings.Join(cells, "\t"))
	}
	tw.Flush()
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, c := range r.Claims {
		verdict := "holds"
		if !c.Holds {
			verdict = "FAILS"
		}
		fmt.Fprintf(&b, "claim %s: %s\n", verdict, c.Text)
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

// recommend runs a fresh CoPhy advisor (cold INUM cache) over the
// candidates s under the storage budget M = m.
func (e *env) recommend(cfg Config, w *workload.Workload, s []*catalog.Index, m float64) (*cophy.Result, error) {
	res, err := e.cophyAdvisor(cfg).Recommend(w, s, cophy.Constraints{BudgetBytes: e.budget(m)})
	if err != nil {
		return nil, err
	}
	if res.Infeasible {
		return nil, fmt.Errorf("cophy infeasible: %v", res.Violated)
	}
	return res, nil
}

// paperSizes are the workload sizes of the paper's size sweeps.
var paperSizes = []int{250, 500, 1000}

// workloadName names a generated workload by kind and paper size.
func workloadName(het bool, paperSize int) string {
	if het {
		return fmt.Sprintf("W_het_%d", paperSize)
	}
	return fmt.Sprintf("W_hom_%d", paperSize)
}

// hom generates the homogeneous workload at a paper size.
func (cfg Config) hom(paperSize int) *workload.Workload {
	w := workload.Hom(workload.HomConfig{Queries: cfg.size(paperSize), Seed: cfg.Seed})
	w.Name = workloadName(false, paperSize)
	return w
}

// het generates the heterogeneous workload at a paper size.
func (cfg Config) het(paperSize int) *workload.Workload {
	w := workload.Het(workload.HetConfig{Queries: cfg.size(paperSize), Seed: cfg.Seed})
	w.Name = workloadName(true, paperSize)
	return w
}

// budget converts the paper's budget fraction M into bytes.
func (e *env) budget(m float64) float64 { return m * float64(e.cat.TotalBytes()) }

func secs(d time.Duration) string { return fmt.Sprintf("%.2fs", d.Seconds()) }

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

func ratio(v float64) string { return fmt.Sprintf("%.2f", v) }
