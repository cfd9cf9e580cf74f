package cophy

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// solved is what two solves must agree on to count as the same solve.
type solved struct {
	Selected      []bool
	EstCost       float64
	Lower         float64
	Iters         int
	NumCandidates int
}

func solveOf(t *testing.T, se *Session) solved {
	t.Helper()
	res, err := se.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Infeasible || len(res.Indexes) == 0 {
		t.Fatalf("solve degenerate: %+v", res)
	}
	return solved{res.Selected, res.EstCost, res.Lower, res.Iters, len(se.Candidates())}
}

// exportOf renders the session's exported state as the durability layer
// stores it.
func exportOf(t *testing.T, se *Session) string {
	t.Helper()
	state := se.ExportState()
	if state == nil || len(state.Duals) == 0 || len(state.Candidates) != len(se.Candidates()) {
		t.Fatalf("export degenerate: %+v", state)
	}
	blob, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// warmOrigin is one way a session comes to be warm.
type warmOrigin struct {
	name string
	open func(t *testing.T) *Session
}

// warmOrigins returns the two origins of a warm session over the same
// instance, each on an advisor of its own (fresh INUM cache): "solved"
// ran its cold solve in-process, "restored" was rebuilt from the
// solved session's exported state after a JSON round-trip, the way the
// daemon restarts. The restored state IS the session state, so the
// deterministic solver must not be able to tell the two apart, whatever
// happens to the session next. cold is the cold solve both start from.
func warmOrigins(t *testing.T, opts Options, cat *catalog.Catalog, w *workload.Workload, s []*catalog.Index, cons Constraints) (cold solved, origins []warmOrigin) {
	t.Helper()
	fresh := func() *Advisor { return NewAdvisor(cat, engine.New(cat, engine.SystemA()), opts) }
	first := fresh().NewSession(w, s, cons)
	if first.Warm() {
		t.Fatal("unsolved session reports warm")
	}
	cold = solveOf(t, first)
	if cold.Iters < 2 {
		t.Fatalf("cold solve trivial (%d iters)", cold.Iters)
	}
	blob := exportOf(t, first)
	openSolved := func(t *testing.T) *Session {
		se := fresh().NewSession(w, s, cons)
		solveOf(t, se)
		return se
	}
	openRestored := func(t *testing.T) *Session {
		var state SessionState
		if err := json.Unmarshal([]byte(blob), &state); err != nil {
			t.Fatal(err)
		}
		return fresh().RestoreSession(w, &state, cons)
	}
	return cold, []warmOrigin{{"solved", openSolved}, {"restored", openRestored}}
}

// sameFromEveryOrigin runs op on a fresh warm session of each origin and
// requires identical outcomes; it returns the common outcome.
func sameFromEveryOrigin[T any](t *testing.T, origins []warmOrigin, op func(t *testing.T, se *Session) T) T {
	t.Helper()
	var first T
	for i, o := range origins {
		se := o.open(t)
		if !se.Warm() {
			t.Fatalf("%s session reports cold", o.name)
		}
		got := op(t, se)
		if i == 0 {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("%s session differs from %s session:\n got %+v\nwant %+v", o.name, origins[0].name, got, first)
		}
	}
	return first
}

// TestSessionExportRestoreWarm: export, re-solve and grow-then-solve
// behave identically whether the session's warm state came from its own
// solve or from a restore, and the warm solves beat the cold one.
func TestSessionExportRestoreWarm(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	// The daemon's solver profile, where a warm identical-workload
	// re-solve terminates early on the accepted-gap ratchet.
	opts := Options{GapTol: 0.02, RootIters: 160, MaxNodes: 16}
	w := workload.Hom(workload.HomConfig{Queries: 30, Seed: 11})
	all := Candidates(cat, w, CGenOptions{Covering: true})
	s, extra := all[:2*len(all)/3], all[2*len(all)/3:]
	cold, origins := warmOrigins(t, opts, cat, w, s, FractionOfData(cat, 0.5))

	t.Run("export", func(t *testing.T) {
		sameFromEveryOrigin(t, origins, exportOf)
	})
	t.Run("solve", func(t *testing.T) {
		warm := sameFromEveryOrigin(t, origins, solveOf)
		if warm.Iters >= cold.Iters {
			t.Fatalf("re-solve not warm: %d iters vs cold %d", warm.Iters, cold.Iters)
		}
	})
	t.Run("solve+export", func(t *testing.T) {
		sameFromEveryOrigin(t, origins, func(t *testing.T, se *Session) string {
			solveOf(t, se)
			return exportOf(t, se)
		})
	})
	t.Run("add+solve", func(t *testing.T) {
		grown := sameFromEveryOrigin(t, origins, func(t *testing.T, se *Session) solved {
			se.AddCandidates(extra)
			return solveOf(t, se)
		})
		if grown.NumCandidates != len(all) {
			t.Fatalf("grown to %d candidates, want %d", grown.NumCandidates, len(all))
		}
		// A larger candidate set can only help (within solver slack).
		if grown.EstCost > cold.EstCost*1.02 {
			t.Fatalf("more candidates worsened cost: %v -> %v", cold.EstCost, grown.EstCost)
		}
	})
}

// TestSessionCompactCarriesWarmState: compacting a session onto the
// live candidate subset keeps it warm — the remapped duals and
// incumbent make the next solve cheaper than a cold one — and shrinks
// the candidate set, identically from either origin.
func TestSessionCompactCarriesWarmState(t *testing.T) {
	ad, cat, _ := testAdvisor(t)
	w := workload.Hom(workload.HomConfig{Queries: 30, Seed: 11})
	s := Candidates(cat, w, CGenOptions{Covering: true})
	cons := FractionOfData(cat, 0.25)
	cold, origins := warmOrigins(t, ad.Opts, cat, w, s, cons)

	// Compact onto the first two thirds of the candidates plus every
	// selected one (so the incumbent survives).
	keep := append([]*catalog.Index(nil), s[:2*len(s)/3]...)
	have := map[string]bool{}
	for _, ix := range keep {
		have[ix.ID()] = true
	}
	for i, on := range cold.Selected {
		if on && !have[s[i].ID()] {
			have[s[i].ID()] = true
			keep = append(keep, s[i])
		}
	}

	t.Run("compact+export", func(t *testing.T) {
		sameFromEveryOrigin(t, origins, func(t *testing.T, se *Session) string {
			se.Compact(keep)
			if !se.Warm() {
				t.Fatal("compaction lost the warm state")
			}
			return exportOf(t, se)
		})
	})
	t.Run("compact+solve", func(t *testing.T) {
		warm := sameFromEveryOrigin(t, origins, func(t *testing.T, se *Session) solved {
			se.Compact(keep)
			return solveOf(t, se)
		})
		if warm.NumCandidates != len(keep) {
			t.Fatalf("compacted to %d candidates, want %d", warm.NumCandidates, len(keep))
		}
		if warm.Iters >= cold.Iters {
			t.Fatalf("compacted re-solve not warm: %d iters vs cold %d", warm.Iters, cold.Iters)
		}
		// A cold control over the same compacted set, for the
		// comparison's sanity (same instance, no warm state).
		coldC := solveOf(t, ad.NewSession(w, keep, cons))
		if coldC.Iters >= 2 && warm.Iters > coldC.Iters {
			t.Fatalf("compacted warm solve (%d iters) worse than compacted cold (%d)", warm.Iters, coldC.Iters)
		}
	})
}
