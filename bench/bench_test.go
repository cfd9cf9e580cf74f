package main

import (
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
)

const manifestPath = "../BENCHMARK.json"

func TestQuantilesAndTailRule(t *testing.T) {
	var s samples
	for i := 10; i >= 1; i-- {
		s = append(s, float64(i))
	}
	if got := s.median(); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := s.p(0.90); got != 9 {
		t.Errorf("nearest-rank p90 of 1..10 = %v, want 9", got)
	}
	if got := s.p(1); got != 10 {
		t.Errorf("p100 = %v, want the maximum", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := s.quartiles(); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := (samples{3}).quartiles(); q1 != 3 || q3 != 3 {
		t.Errorf("quartiles of one value = %v, %v", q1, q3)
	}

	// The reported tail is the highest percentile with at least ten
	// samples beyond it; below twenty samples that is none, so the max.
	for _, c := range []struct {
		n    int
		want float64
	}{{2, 1}, {19, 1}, {20, 0.50}, {39, 0.50}, {40, 0.75}, {99, 0.75}, {100, 0.90}, {200, 0.95}, {1000, 0.99}, {4940, 0.99}, {10000, 0.999}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// A pass's peak is seen while the memory is held and forgotten by the
// next interval once it is given back.
func TestRSSSamplerPeakPerInterval(t *testing.T) {
	rss, err := startRSSSampler()
	if err != nil {
		t.Fatal(err)
	}
	before := rss.take()
	const mb = 64
	block := make([]byte, mb<<20)
	for i := 0; i < len(block); i += 4096 {
		block[i] = 1
	}
	held := rss.take()
	runtime.KeepAlive(block)
	if held < before+mb*0.9 {
		t.Errorf("peak while holding %d MB = %.1f MB, before %.1f MB", mb, held, before)
	}
	block = nil
	debug.FreeOSMemory()
	rss.take() // the interval in which the block was released still saw it
	if after := rss.take(); after > held-mb*0.9 {
		t.Errorf("peak after release = %.1f MB, while held %.1f MB", after, held)
	}
	if err := rss.stop(); err != nil {
		t.Error(err)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "b", StartNS: 20, EndNS: 50},  // overlaps a: 10..50 counts once
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 120}, // runs past the parent: only 90..100 counts
		{ID: 5, Parent: 3, Name: "d", StartNS: 25, EndNS: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20} {
		if got := self[id].Nanoseconds(); got != want {
			t.Errorf("self time of span %d = %d, want %d", id, got, want)
		}
	}
	if got := totalsByName(spans)["root"]; got.total != 100 || got.self != 50 || got.n != 1 {
		t.Errorf("totals of root = %+v", got)
	}

	rec := newRecorder()
	rec.newTrace()
	root, end := rec.start("op", 0)
	ids := rec.aggregate(root, []aggPart{{name: "x", dur: 5, count: 3}, {name: "none"}, {name: "y", dur: 7, count: 1}})
	end()
	if ids[0] == 0 || ids[1] != 0 || ids[2] == 0 {
		t.Fatalf("aggregate ids = %v", ids)
	}
	x, y := rec.spans[ids[0]-1], rec.spans[ids[2]-1]
	if x.Parent != root || x.Trace != 1 || !x.Aggregate || y.StartNS != x.EndNS || y.dur() != 7 {
		t.Errorf("aggregate spans laid out wrongly: %+v %+v", x, y)
	}
	var none *recorder // the untraced run
	none.newTrace()
	if id, d := none.timed("op", 0, func() {}); id != 0 || d < 0 {
		t.Errorf("nil recorder returned span %d", id)
	}
}

func TestScriptsComeFromTheSeed(t *testing.T) {
	sys := newSystem()
	script := func(seed int64) string {
		_, ops, hash, err := daemonScript(sys, config{seed: seed, sizes: quickSizes})
		if err != nil {
			t.Fatal(err)
		}
		if len(ops) == 0 {
			t.Fatal("empty script")
		}
		return hash
	}
	if script(1) != script(1) {
		t.Error("daemon script: same seed, different scripts")
	}
	if script(1) == script(2) {
		t.Error("daemon script: different seeds, same script")
	}
	session := func(seed int64) string {
		in := sessionInstance(sys, quickSizes.homQueries, seed)
		if len(in.script) != 13 {
			t.Fatalf("revision script has %d steps, want 13", len(in.script))
		}
		return in.hash
	}
	if session(1) != session(1) {
		t.Error("session script: same seed, different scripts")
	}
	if session(1) == session(2) {
		t.Error("session script: different seeds, same script")
	}
}

func TestManifestMeetsTheContract(t *testing.T) {
	m, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"hom1000_cold", "het500_cold", "hom1000_session", "daemon_mix"}
	if len(m.Workloads) != len(want) {
		t.Fatalf("%d workloads declared, want %d", len(m.Workloads), len(want))
	}
	for i, w := range m.Workloads {
		if w.Name != want[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q with a why of %d characters", i, w.Name, len(w.Why))
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	setup := m.byName["setup_s"]
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s declared as %+v", setup)
	}
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		if setup != nil && d.Bound > setup.Bound {
			t.Errorf("%s: bound %v above setup_s's %v, which is to be the largest", d.Name, d.Bound, setup.Bound)
		}
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
}

// TestQuickSmoke runs every workload, untraced and traced, on tiny
// inputs: each must pass its output checks and emit exactly the
// declared metrics (print refuses anything else), no end-to-end metric
// may be 0, and every declared per-layer metric must be measured by at
// least one workload.
func TestQuickSmoke(t *testing.T) {
	m, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	measured := make(map[string]bool)
	for _, w := range m.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 7, seconds: 0.2, trace: trace, sizes: quickSizes, outDir: t.TempDir()}
			line, err := runWorkload(io.Discard, m, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d checks failed", w.Name, trace, line.Correct, line.Failed, line.Attempted)
			}
			for name, v := range line.Metrics {
				if v.Unit != m.byName[name].Unit {
					t.Errorf("%s: %s reported in %q, declared in %q", w.Name, name, v.Unit, m.byName[name].Unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s = %v", w.Name, name, v.Value)
				}
				if !trace && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
				}
				if v.Value != 0 {
					measured[name] = true
				}
			}
		}
	}
	// Counts of things that do not happen on a healthy run, or on
	// inputs this small (branching), may stay 0.
	rare := map[string]bool{
		"lagrange.nodes": true, "lagrange.numeric_fallbacks": true, "lagrange.warm_downgrades": true, "lp.factor_s": true, "lp.factor_count": true,
		"server.compactions": true, "server.rebases": true, "server.evicted_entries": true,
	}
	for _, d := range m.PerLayer {
		if !measured[d.Name] && !rare[d.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", d.Name)
		}
	}
}
