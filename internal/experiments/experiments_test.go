package experiments

import (
	"strings"
	"testing"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config { return Config{Scale: 0.05, Seed: 7, GapTol: 0.05} }

func checkReport(t *testing.T, rep *Report, wantRows int) {
	t.Helper()
	if rep == nil {
		t.Fatal("nil report")
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
}

func TestExpFigure4(t *testing.T) {
	rep, err := ExpFigure4(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, 3)
}

func TestExpFigure7(t *testing.T) {
	rep, err := ExpFigure7(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, 3)
}

func TestExpFigure9(t *testing.T) {
	rep, err := ExpFigure9(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, 3)
}

func TestExpFigure6a(t *testing.T) {
	rep, err := ExpFigure6a(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, 3)
}

func TestExpFigure6b(t *testing.T) {
	rep, err := ExpFigure6b(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, 2)
}

func TestExpFigure6c(t *testing.T) {
	rep, err := ExpFigure6c(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, 5)
}

func TestExpFigure5(t *testing.T) {
	rep, err := ExpFigure5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, 4)
}

func TestExpFigure10(t *testing.T) {
	rep, err := ExpFigure10(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, 3)
}

func TestExpTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("table1 runs 8 advisor invocations")
	}
	rep, err := ExpTable1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, 4)
}

func TestExpSkewZ1(t *testing.T) {
	rep, err := ExpSkewZ1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, 2)
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 11 {
		t.Fatalf("registered experiments = %d, want 11", len(names))
	}
	if _, err := Run("nope", tiny()); err == nil {
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
