package experiments

import (
	"strings"
	"testing"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config { return Config{Scale: 0.05, Seed: 7, GapTol: 0.05} }

// grid is the package's one grid: a cell several reports read runs once
// per test binary, and only when a test first asks for it.
var grid = NewGrid(tiny())

// expectFail marks the claims that do not hold at tiny(), keyed by
// report ID and claim text, with the measured numbers and the reason.
// A marked claim that starts to hold fails its test, so a mark cannot
// outlive its finding.
//
// The four System-A claims share one cause. At z = 0 on W_hom_1000 (50
// statements here) CoPhy's recommendation costs 16 % more than Tool-A's
// under the what-if optimizer, while its gap tolerance is 5 %. INUM
// prices both configurations within 0.3 % of the optimizer, and CoPhy's
// lower bound over its candidates is above Tool-A's cost: 5 of Tool-A's
// 12 indexes are merged covering indexes that CGen does not generate.
// Tool-A is a stand-in, not the paper's tool.
var expectFail = map[string]string{
	"Table 1: CoPhyA ≥ Tool-A on every instance": "0.94 at z = 0 on W_hom (paper 2.10)",
	"Table 1: Tool-A times out only at z = 2 on W_het": "Tool-A also times out at z = 0 on W_het, where the paper reports " +
		"2.29: the stand-in's what-if budget (80 000 calls) runs out on the diverse workload at any skew",
	"Figure 7: CoPhyA ≥ Tool-A at every size":   "Tool-A 77.4/73.9/74.3 % vs CoPhyA 71.5/70.5/70.1 % (paper 35/32/29 vs 61 %)",
	"Figure 8: CoPhyA ≥ Tool-A at every budget": "CoPhyA/Tool-A 1.02/0.94/0.99 at M = 0.5/1/2 (paper 1.85/1.97/1.09)",
	"Appendix C.1 (z=1): CoPhyA ≥ Tool-A":       "Tool-A 77.9 % vs CoPhyA 74.3 % (paper 67 vs 92 %)",
}

// runReport runs one experiment on the shared grid, checks its shape,
// and checks every claim against expectFail.
func runReport(t *testing.T, run Runner, wantRows int) {
	t.Helper()
	rep, err := run(grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < wantRows {
		t.Fatalf("%s: %d rows, want at least %d", rep.ID, len(rep.Rows), wantRows)
	}
	for _, row := range rep.Rows {
		if len(row) != len(rep.Header) {
			t.Fatalf("%s: row width %d != header width %d", rep.ID, len(row), len(rep.Header))
		}
	}
	s := rep.String()
	if !strings.Contains(s, rep.ID) {
		t.Fatalf("%s: rendering lacks the ID", rep.ID)
	}
	claims := map[string]bool{}
	for _, c := range rep.Claims {
		key := rep.ID + ": " + c.Text
		claims[key] = true
		why, marked := expectFail[key]
		switch {
		case c.Holds && marked:
			t.Errorf("%s: the claim now holds; remove its expected failure (%s)\n%s", key, why, s)
		case !c.Holds && !marked:
			t.Errorf("%s: the claim fails\n%s", key, s)
		}
	}
	for key := range expectFail {
		if strings.HasPrefix(key, rep.ID+": ") && !claims[key] {
			t.Errorf("expected failure %q names no claim of %s", key, rep.ID)
		}
	}
}

func TestExpFigure4(t *testing.T)  { runReport(t, ExpFigure4, 3) }
func TestExpFigure7(t *testing.T)  { runReport(t, ExpFigure7, 3) }
func TestExpFigure9(t *testing.T)  { runReport(t, ExpFigure9, 3) }
func TestExpFigure6a(t *testing.T) { runReport(t, ExpFigure6a, 3) }
func TestExpFigure6b(t *testing.T) { runReport(t, ExpFigure6b, 2) }
func TestExpFigure6c(t *testing.T) { runReport(t, ExpFigure6c, 5) }
func TestExpFigure5(t *testing.T)  { runReport(t, ExpFigure5, 4) }
func TestExpFigure10(t *testing.T) { runReport(t, ExpFigure10, 3) }

func TestExpTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("table1's z = 2 and W_het System-A cells are its own, and Tool-A is slow on them")
	}
	runReport(t, ExpTable1, 4)
}

func TestExpSkewZ1(t *testing.T)  { runReport(t, ExpSkewZ1, 2) }
func TestExpFigure8(t *testing.T) { runReport(t, ExpFigure8, 3) }

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 11 {
		t.Fatalf("registered experiments = %d, want 11", len(names))
	}
	if _, err := grid.Run("nope"); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestReportRendering(t *testing.T) {
	rep := &Report{
		ID: "X", Title: "t",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"n"},
	}
	s := rep.String()
	for _, want := range []string{"X", "a", "bb", "1", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering lacks %q:\n%s", want, s)
		}
	}
}
