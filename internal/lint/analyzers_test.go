package lint_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// TestAnalyzers proves each analyzer non-vacuous against its
// // want-annotated testdata package: every flagged line must produce
// its diagnostic, every clean construction must stay silent. The
// _main/_noseam packages pin the exemption paths (package main for
// ctxflow, seamless packages for nakedclock) with zero wants.
func TestAnalyzers(t *testing.T) {
	cases := []struct {
		analyzer *lint.Analyzer
		dir      string
	}{
		{lint.Floatdet, "floatdet"},
		{lint.Errbody, "errbody"},
		{lint.Ctxflow, "ctxflow"},
		{lint.Ctxflow, "ctxflow_main"},
		{lint.Nakedclock, "nakedclock"},
		{lint.Nakedclock, "nakedclock_noseam"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			t.Parallel()
			linttest.Run(t, tc.analyzer, filepath.Join("testdata", "src", tc.dir))
		})
	}
}
