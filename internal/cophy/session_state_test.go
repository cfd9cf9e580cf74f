package cophy

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/lagrange"
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

// TestSessionCompactCarriesWarmState: setting a session's candidates to
// a live subset keeps it warm — the remapped duals and
// incumbent make the next solve cheaper than a cold one — and shrinks
// the candidate set, identically from either origin.
func TestSessionCompactCarriesWarmState(t *testing.T) {
	ad, cat, _ := testAdvisor(t)
	w := workload.Hom(workload.HomConfig{Queries: 30, Seed: 11})
	s := Candidates(cat, w, CGenOptions{Covering: true})
	cons := FractionOfData(cat, 0.25)
	cold, origins := warmOrigins(t, ad.Opts, cat, w, s, cons)

	// Keep the first two thirds of the candidates plus every
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
			if dropped := se.SetCandidates(keep); dropped != len(s)-len(keep) {
				t.Fatalf("SetCandidates dropped %d candidates, want %d", dropped, len(s)-len(keep))
			}
			if !se.Warm() {
				t.Fatal("dropping candidates lost the warm state")
			}
			return exportOf(t, se)
		})
	})
	t.Run("compact+solve", func(t *testing.T) {
		warm := sameFromEveryOrigin(t, origins, func(t *testing.T, se *Session) solved {
			se.SetCandidates(keep)
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

// TestRestoreParentFormatRecord: a session record written while dual
// sites still carried (choice, slot) keys — always −1 in a written
// record — restores to the same state, and so to the same solve, as its
// current wire form. The literal pins the wire keys: renaming id, sites,
// index or value makes the decoded state differ from want.
func TestRestoreParentFormatRecord(t *testing.T) {
	const parentFormat = `[` +
		`{"id":"hom-0001","sites":[{"choice":-1,"slot":-1,"index":2,"value":0},{"choice":-1,"slot":-1,"index":6,"value":0}]},` +
		`{"id":"hom-0004","sites":[{"choice":-1,"slot":-1,"index":17,"value":0},{"choice":-1,"slot":-1,"index":18,"value":2942.3039825024134}]},` +
		`{"id":"hom-0006","sites":[{"choice":-1,"slot":-1,"index":35,"value":2942.3039825024134},{"choice":-1,"slot":-1,"index":37,"value":0},{"choice":-1,"slot":-1,"index":13,"value":1666.3972247911215}]}]`
	want := lagrange.Dual{
		{ID: "hom-0001", Sites: []lagrange.DualSite{{Index: 2}, {Index: 6}}},
		{ID: "hom-0004", Sites: []lagrange.DualSite{{Index: 17}, {Index: 18, Value: 2942.3039825024134}}},
		{ID: "hom-0006", Sites: []lagrange.DualSite{{Index: 35, Value: 2942.3039825024134}, {Index: 37}, {Index: 13, Value: 1666.3972247911215}}},
	}
	currentFormat := strings.ReplaceAll(parentFormat, `"choice":-1,"slot":-1,`, "")
	if now, err := json.Marshal(want); err != nil || string(now) != currentFormat {
		t.Fatalf("wire form of the dual state is\n%s (%v)\nwant\n%s", now, err, currentFormat)
	}

	ad, cat, _ := testAdvisor(t)
	w := workload.Hom(workload.HomConfig{Queries: 8, Seed: 11})
	s := Candidates(cat, w, CGenOptions{MaxKeyCols: 2})
	selected := make([]bool, len(s))
	selected[13], selected[18], selected[35] = true, true, true
	restoreAndSolve := func(duals string, want lagrange.Dual) solved {
		state := SessionState{Candidates: s, Selected: selected, Gap: 0.0159505171701314}
		if err := json.Unmarshal([]byte(duals), &state.Duals); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(state.Duals, want) {
			t.Fatalf("record decoded to %+v, want %+v", state.Duals, want)
		}
		return solveOf(t, ad.RestoreSession(w, &state, FractionOfData(cat, 0.25)))
	}
	fromParent, fromCurrent := restoreAndSolve(parentFormat, want), restoreAndSolve(currentFormat, want)
	if !reflect.DeepEqual(fromParent, fromCurrent) {
		t.Fatalf("parent-format record solves to %+v, current format to %+v", fromParent, fromCurrent)
	}
	if reflect.DeepEqual(fromParent, restoreAndSolve("null", nil)) {
		t.Fatal("the recorded duals made no difference to the solve: the comparison above is vacuous")
	}
}

// TestSessionDualStateImmutable: a dual state the session handed out is
// never written to again — not by the next solve that warm-starts from
// it, not by SetCandidates remapping it, not by the solve after that.
func TestSessionDualStateImmutable(t *testing.T) {
	ad, cat, _ := testAdvisor(t)
	w := workload.Hom(workload.HomConfig{Queries: 20, Seed: 11})
	s := Candidates(cat, w, CGenOptions{Covering: true})
	se := ad.NewSession(w, s, FractionOfData(cat, 0.25))
	solveOf(t, se)
	exported := se.ExportState().Duals
	var before lagrange.Dual
	for _, b := range exported {
		before = append(before, lagrange.DualBlock{ID: b.ID, Sites: append([]lagrange.DualSite(nil), b.Sites...)})
	}
	solveOf(t, se)
	se.SetCandidates(s[:len(s)/2])
	if _, err := se.Solve(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exported, before) {
		t.Fatal("an exported dual state changed under later solves and a candidate drop")
	}
}
