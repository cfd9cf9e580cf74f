package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/lagrange"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// sizes are the input sizes of the four workloads. The full sizes are
// the ones ISSUE 12 fixed; quick exists only so the tests can run all
// four workloads in a few seconds and is never a measurement.
type sizes struct {
	homQueries, hetQueries, daemonQueries int
	whatifsPerBatch                       int
	discardHom                            int // warm-up advises not timed
	homInstances, hetInstances            int // instances a cold run cycles through
	sessionInstances                      int
	setups                                int // set-up is repeated this often and its median reported
}

var (
	fullSizes  = sizes{homQueries: 1000, hetQueries: 500, daemonQueries: 2000, whatifsPerBatch: 20, discardHom: 3, homInstances: 8, hetInstances: 2, sessionInstances: 3, setups: 7}
	quickSizes = sizes{homQueries: 30, hetQueries: 12, daemonQueries: 48, whatifsPerBatch: 4, discardHom: 1, homInstances: 2, hetInstances: 2, sessionInstances: 2, setups: 2}
)

const (
	budgetFraction = 0.5 // storage budget as a share of the data size
	batchSize      = 8   // statements per /ingest
	recommendEvery = 3   // one /recommend after every third batch
	warmupShare    = 0.1 // leading share of the daemon script that is not timed
)

// advisorOptions are the cmd/cophy and cophyd defaults.
func advisorOptions() cophy.Options {
	return cophy.Options{GapTol: 0.05, RootIters: 160, MaxNodes: 32}
}

var cgenOptions = cophy.CGenOptions{Covering: true}

// system is the tuned database every workload shares: the TPC-H SF1
// statistics catalog under the System-A cost profile.
type system struct {
	cat *catalog.Catalog
	eng *engine.Engine
}

func newSystem() system {
	cat := tpch.Build(tpch.Config{ScaleFactor: 1})
	return system{cat: cat, eng: engine.New(cat, engine.SystemA())}
}

func (s system) baseline() *engine.Config {
	return engine.NewConfig(tpch.BaselineIndexes(s.cat)...)
}

// instanceSeed derives the seed of a run's j-th instance.
//
// How long the solver takes on an instance, and how good its answer
// is, is close to a chaotic function of the instance: across ten seeds
// het-500's improvement ranges 0.37–0.55 and its bound ratio 0.29–0.49,
// a session's median re-solve 158–232 ms, and merely permuting one
// workload's statements moves het-500's improvement between 0.43 and
// 0.56. Only a median over many instances is steady. hom1000_cold fits
// eight instances in a run and daemon_mix pools some eighty solves of a
// growing workload, so both generate from the run's seed. A het-500
// advise is half a run and a session pass a quarter, so a run of either
// cannot average instances out; they measure the same instances
// whatever the seed, or no bound under 25% could gate them.
func instanceSeed(cfg config, seeded bool, j int) int64 {
	seed := cfg.seed
	if !seeded {
		seed = fixedInstances
	}
	return seed*maxInstances + int64(j)
}

const (
	maxInstances   = 16
	fixedInstances = 42 // ISSUE 12's default seed
)

// timeSetups runs the workload's set-up n times and returns the last
// inputs with every wall time, so that work a later change moves into
// set-up shows in setup_s.
func timeSetups[T any](n int, setup func() (T, error)) (T, samples, error) {
	var in T
	var walls samples
	for i := 0; i < n; i++ {
		runtime.GC() // every set-up starts from the same heap
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return in, nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		in = v
	}
	return in, walls, nil
}

// pacer decides how often a timed body repeats inside the run length:
// at least min times (once per instance, so that what a run reports
// never depends on how fast the machine is), then another repeat
// starts only while it is expected to end nearer to the run length than
// stopping now would, so a run overshoots by at most half a repeat
// however long one repeat takes.
type pacer struct {
	start  time.Time
	length time.Duration
	min    int
	done   int
}

func newPacer(seconds float64, min int) *pacer {
	return &pacer{start: time.Now(), length: time.Duration(seconds * float64(time.Second)), min: max(min, 1)}
}

func (p *pacer) more() bool {
	if p.done < p.min {
		return true
	}
	elapsed := time.Since(p.start)
	return elapsed+elapsed/time.Duration(2*p.done) <= p.length
}

func (p *pacer) tick() { p.done++ }

// firstBound reports when a solve first told its caller both a lower
// bound and an incumbent — the paper's interactive feedback. arm is
// called right before the solve starts; progress is the callback the
// advisor is configured with.
type firstBound struct {
	t0    time.Time
	after time.Duration
	seen  bool
}

func (f *firstBound) arm() { f.t0, f.seen, f.after = time.Now(), false, 0 }

func (f *firstBound) progress(e lagrange.Event) {
	if !f.seen && !math.IsInf(e.Lower, 0) && !math.IsInf(e.Upper, 0) {
		f.seen, f.after = true, time.Since(f.t0)
	}
}

// checks counts output checks: every call is one attempted check, a
// false condition one failed check with its description kept.
type checks struct {
	attempted, failed int
	notes             []string
}

func (c *checks) that(ok bool, format string, args ...any) bool {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.notes) < 20 {
			c.notes = append(c.notes, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// checkResult applies the advisor's contract to one recommendation: a
// feasible configuration inside the budget with a valid gap.
func (c *checks) checkResult(what string, cat *catalog.Catalog, res *cophy.Result, budgetBytes float64) {
	if !c.that(res != nil && !res.Infeasible, "%s: infeasible", what) {
		return
	}
	var size float64
	for _, ix := range res.Indexes {
		size += float64(ix.Bytes(cat.Table(ix.Table)))
	}
	c.that(budgetBytes < 0 || size <= budgetBytes*(1+1e-9), "%s: indexes take %.0f bytes, budget %.0f", what, size, budgetBytes)
	c.checkBounds(what, res.EstCost, res.Lower, res.Gap)
}

// checkBounds checks lower ≤ cost and gap = (cost − lower)/cost, the
// solver clamping a negative gap to zero.
func (c *checks) checkBounds(what string, cost, lower, gap float64) {
	c.that(lower <= cost*(1+1e-9), "%s: lower bound %.6g above cost %.6g", what, lower, cost)
	want := math.Max(0, (cost-lower)/math.Abs(cost))
	c.that(math.Abs(gap-want) <= 1e-9, "%s: gap %.9g, bounds give %.9g", what, gap, want)
}

// improvement is the optimizer's ground truth for a recommendation:
// 1 − cost(X* ∪ X0)/cost(X0) over the workload, by what-if calls.
func (s system) improvement(w *workload.Workload, rec []*catalog.Index) (float64, error) {
	base := s.baseline()
	with := s.baseline()
	for _, ix := range rec {
		with.Add(ix)
	}
	baseCost, err := s.eng.WorkloadCost(w, base)
	if err != nil {
		return 0, err
	}
	recCost, err := s.eng.WorkloadCost(w, with)
	if err != nil {
		return 0, err
	}
	return 1 - recCost/baseCost, nil
}

// rssSampler follows the process's resident set (the second field of
// /proc/self/statm) every two milliseconds from a goroutine of its own,
// so that a run can report the peak of each pass instead of the
// process's one high-water mark. VmHWM is the highest of everything the
// process ever did, so it grows with whatever the run accumulates and
// with the number of passes a busy or idle host fits into the run
// length (measured: 92 MB after three session passes, 108 after four),
// and one collection that starts late sets it for the whole run. The
// median of the passes' peaks depends on neither.
type rssSampler struct {
	f      *os.File
	mu     sync.Mutex
	peakKB int64
	err    error
	quit   chan struct{}
	done   chan struct{}
	once   sync.Once
}

const rssSampleEvery = 2 * time.Millisecond

func startRSSSampler() (*rssSampler, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	s := &rssSampler{f: f, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s, nil
}

func (s *rssSampler) sample() {
	kb, err := s.residentKB()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peakKB = max(s.peakKB, kb)
	if err != nil && s.err == nil {
		s.err = err
	}
}

func (s *rssSampler) residentKB() (int64, error) {
	var buf [128]byte
	n, err := s.f.ReadAt(buf[:], 0)
	if n == 0 {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	fields := strings.Fields(string(buf[:n]))
	if len(fields) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q", buf[:n])
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return pages * int64(os.Getpagesize()) / 1024, nil
}

// take returns the highest resident set, in MB, since the last take
// (or the start), and starts a new interval.
func (s *rssSampler) take() float64 {
	s.sample() // an interval shorter than the sampling period still has a sample
	s.mu.Lock()
	defer s.mu.Unlock()
	kb := s.peakKB
	s.peakKB = 0
	return float64(kb) / 1024
}

// stop ends the sampling goroutine, waits for it, and reports the
// first read that failed, if any. It may be called more than once.
func (s *rssSampler) stop() error {
	s.once.Do(func() {
		close(s.quit)
		<-s.done
		s.f.Close()
	})
	return s.err
}

// memDelta is the allocator and collector work between two points.
type memDelta struct {
	allocMB, mallocs, gcCycles, gcPauseMS float64
}

func memSince(before *runtime.MemStats) memDelta {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return memDelta{
		allocMB:   float64(now.TotalAlloc-before.TotalAlloc) / (1 << 20),
		mallocs:   float64(now.Mallocs - before.Mallocs),
		gcCycles:  float64(now.NumGC - before.NumGC),
		gcPauseMS: float64(now.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}
