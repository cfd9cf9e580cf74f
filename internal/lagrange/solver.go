package lagrange

import (
	"cmp"
	"context"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/bip"
	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/par"
)

// checkBinaryFeasible decides binary feasibility of the small z
// polytope exactly with the generic BIP solver. The context carries
// cancellation and any request trace into the node LPs.
func checkBinaryFeasible(ctx context.Context, p *lp.Problem, bins []int) bool {
	r := bip.Solve(bip.Model{P: p, Binaries: bins}, bip.Options{MaxNodes: 5000, Ctx: ctx})
	return r.Status != bip.Infeasible
}

// Event is one progress report of the solver: its current bound pair.
// The stream of events is the "continuous feedback on the distance
// between the current and the final solution" of §3 implication 3.
type Event struct {
	Elapsed time.Duration
	// Iter is the subgradient iteration (cumulative across nodes).
	Iter int
	// Lower is the best proven lower bound.
	Lower float64
	// Upper is the best incumbent objective.
	Upper float64
	// Gap is (Upper − Lower)/|Upper|.
	Gap float64
}

// Options configure a solve.
type Options struct {
	// GapTol stops the search at this relative gap. The paper's
	// default CPLEX tuning is 5% (§5.1); zero means 1e-6.
	GapTol float64
	// RootIters caps subgradient iterations at the root (default 240).
	RootIters int
	// NodeIters caps subgradient iterations per branch node (default
	// RootIters/4).
	NodeIters int
	// MaxNodes caps branch-and-bound nodes beyond the root (default
	// 48; 0 keeps the default, negative disables branching).
	MaxNodes int
	// TimeLimit stops the search after this duration (0 = none).
	TimeLimit time.Duration
	// Ctx, when non-nil, cancels the search: the solver checks it
	// between subgradient iterations and at node boundaries and returns
	// its current incumbent and bounds once the context is done. This
	// is the request-deadline path of the daemon — a cancelled HTTP
	// request stops burning solver time mid-solve.
	Ctx context.Context
	// Workers bounds the goroutines evaluating blocks (0 = GOMAXPROCS,
	// 1 = serial): the block duals of every subgradient iteration and
	// the block values of every full primal evaluation (a heuristic's
	// candidate selection, a MIP start). Blocks share only read-only
	// state within one pass, and each pass is reduced serially in block
	// order, so any worker count produces bit-identical results.
	Workers int
	// Start is a MIP start: an initial selection used as incumbent
	// when feasible.
	Start []bool
	// Warm is a dual warm start: the Lambda of a previous solve over a
	// similar model. Blocks adopt the multipliers of the donor block
	// with their label, so the start survives appended candidates and
	// statements appended, dropped or re-weighted. It is what makes
	// interactive re-tuning cheap (Figure 6b).
	Warm Dual
	// Progress receives bound events as the solve advances.
	Progress func(Event)
}

// Result is the outcome of a solve.
type Result struct {
	// Selected is the incumbent selection (len NumIndexes).
	Selected []bool
	// Objective is the incumbent's true objective value.
	Objective float64
	// Lower is the final proven lower bound.
	Lower float64
	// Gap is the final relative gap.
	Gap float64
	// Iters counts subgradient iterations performed.
	Iters int
	// Nodes counts branch-and-bound nodes beyond the root.
	Nodes int
	// NumericFallbacks and WarmDowngrades are always zero: the LP has
	// no fallback path and no warm downgrade. The benchmark still reads
	// them; ROADMAP item 4(b) deletes them.
	NumericFallbacks int
	WarmDowngrades   int
	// Lambda is the final dual state, reusable as Options.Warm.
	Lambda Dual
	// Infeasible is true when the constraints admit no selection.
	Infeasible bool
}

// solver is the compiled working state.
type solver struct {
	m    *Model
	opts Options

	// Per block: one multiplier per *group* — all use sites of an index
	// within the block share one, the (statement, index) multiplier of
	// relax(B); slots of a choice are distinct tables, so an index meets
	// a choice at most once and sharing loses nothing while keeping an
	// index useful in many templates from having its dual price diluted
	// across them. Groups are numbered in order of first appearance in
	// the (choice, slot, option) walk. siteGroup maps each site to its
	// group (−1 for NoIndex options); groupIdx holds the index of each
	// group. The block structure itself is not copied: blockDual walks
	// m.Blocks in the same order with a running site counter.
	lam       [][]float64
	siteGroup [][]int32
	groupIdx  [][]int32

	// attract[a] = Σ_sites w_b·λ_site over sites using index a,
	// maintained incrementally.
	attract []float64

	// incidence[a] lists the blocks (ascending, deduplicated) with at
	// least one option using index a, each with a's group position in
	// that block. One-flip incumbent trials in the local search
	// re-evaluate only these blocks: a flip of a cannot change the
	// primal value of any block that never references a. The λ step
	// reaches the groups of the indexes with z_a ≠ 0 through it.
	incidence [][]blockGroup

	// rowTerms[a] lists index a's coefficients in the side constraints
	// (m.Extra), for the greedy heuristic's running row activities.
	rowTerms [][]rowTerm

	// workers is the block pool size; blockVal and blockUses are the
	// per-iteration result arrays (indexed by block, written by exactly
	// one worker each), and scratches the per-worker buffers.
	workers   int
	blockVal  []float64
	blockUses [][]int32
	scratches []blockScratch
	// moves[bi] lists, during the λ step, the groups of block bi whose
	// multiplier the step can change (see collectMoves). rc and items
	// are the z subproblem's objective and knapsack candidates. All
	// three are rebuilt every iteration into the same storage.
	moves [][]uint32
	rc    []float64
	items []knapItem
	// zProb is the z-polytope LP, built once and retuned in place each
	// iteration (only the objective and branching fixings move), and
	// zBasis the basis carried across its re-solves, so each re-solve
	// starts from the previous optimal basis.
	zProb  *lp.Problem
	zBasis *lp.Basis

	// tr is the request trace riding in opts.Ctx (nil-safe): the z
	// subproblem's simplex phases are recorded on it so a /recommend
	// decomposes down to LP phases through the Lagrangian layer.
	tr *obs.Trace

	start time.Time
	iters int

	fixedIn   []bool
	fixedOut  []bool
	nodeCount int

	bestSel []bool
	bestObj float64
	// inc is the incumbent's cached state (see setIncumbent): bestSel's
	// block values and memoised one-flip outcomes. Nil until there is an
	// incumbent.
	inc    *incState
	lower  float64
	events func(Event)
}

// blockGroup names one multiplier group: position group of
// lam[block]/groupIdx[block].
type blockGroup struct {
	block, group int32
}

// rowTerm is one side-constraint coefficient of an index: row row of
// m.Extra carries coef on it.
type rowTerm struct {
	row  int32
	coef float64
}

// Solve optimizes the model.
func Solve(m *Model, opts Options) Result {
	if err := m.Validate(); err != nil {
		panic(err) // programming error in the model builder
	}
	if opts.GapTol <= 0 {
		opts.GapTol = 1e-6
	}
	if opts.RootIters <= 0 {
		opts.RootIters = 240
	}
	if opts.NodeIters <= 0 {
		opts.NodeIters = opts.RootIters / 4
	}
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 48
	}

	if ok, _ := m.CheckFeasibleCtx(opts.Ctx); !ok {
		return Result{Infeasible: true, Gap: math.Inf(1)}
	}

	s := newSolver(m, opts)
	if len(opts.Warm) > 0 {
		s.applyWarm(opts.Warm)
	}
	if opts.Start != nil && len(opts.Start) == m.NumIndexes {
		if ok, _ := m.SelectionFeasible(opts.Start); ok {
			if st, ok := s.newIncState(opts.Start); ok {
				s.setIncumbent(st)
			}
		}
	}

	// Root relaxation.
	rootLB, zFrac, used := s.subgradient(opts.RootIters, true)
	if rootLB > s.lower {
		s.lower = rootLB
	}
	s.emit()

	// Branch and bound to close the gap.
	if s.gap() > opts.GapTol && opts.MaxNodes > 0 && !s.timeUp() {
		s.branch(rootLB, zFrac, used, opts.MaxNodes)
	}

	if s.bestSel == nil {
		// Fall back to the empty selection when it is genuinely
		// feasible (it may not be under per-statement cost caps).
		empty := make([]bool, m.NumIndexes)
		if ok, _ := m.SelectionFeasible(empty); ok {
			if st, ok := s.newIncState(empty); ok {
				s.setIncumbent(st)
			}
		}
	}
	if s.bestSel == nil {
		// No incumbent at all: the z polytope is feasible but the
		// cost caps reject every selection the search visited.
		return Result{Infeasible: true, Gap: math.Inf(1), Lower: s.lower, Iters: s.iters, Nodes: s.nodeCount}
	}
	s.dropRedundant()
	gap := s.gap()
	return Result{
		Selected:  s.bestSel,
		Objective: s.bestObj,
		Lower:     s.lower,
		Gap:       gap,
		Iters:     s.iters,
		Nodes:     s.nodeCount,
		Lambda:    s.exportLambda(),
	}
}

// newSolver allocates the working state of a solve with opts already
// defaulted, and compiles the model into it.
func newSolver(m *Model, opts Options) *solver {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(m.Blocks) {
		workers = len(m.Blocks)
	}
	if workers < 1 {
		workers = 1
	}
	s := &solver{
		m:         m,
		opts:      opts,
		attract:   make([]float64, m.NumIndexes),
		workers:   workers,
		blockVal:  make([]float64, len(m.Blocks)),
		blockUses: make([][]int32, len(m.Blocks)),
		moves:     make([][]uint32, len(m.Blocks)),
		scratches: make([]blockScratch, workers),
		rc:        make([]float64, m.NumIndexes),
		start:     time.Now(),
		fixedIn:   make([]bool, m.NumIndexes),
		fixedOut:  make([]bool, m.NumIndexes),
		bestObj:   math.Inf(1),
		lower:     math.Inf(-1),
		events:    opts.Progress,
		tr:        obs.TraceFrom(opts.Ctx),
	}
	s.compile()
	return s
}

// compile derives the solver's own state from the model: it enumerates
// the use sites of every block in (choice, slot, option) order,
// allocates their multiplier groups and lists the blocks each index
// occurs in.
func (s *solver) compile() {
	m := s.m
	s.lam = make([][]float64, len(m.Blocks))
	s.siteGroup = make([][]int32, len(m.Blocks))
	s.groupIdx = make([][]int32, len(m.Blocks))
	// groupAt[a] is base + the group of index a in the block that last
	// used it, base being the groups allocated before that block: a
	// value below the current block's base means "not seen here yet".
	// blocksOf[a] counts the blocks with a group on a.
	groupAt := make([]int, m.NumIndexes)
	for a := range groupAt {
		groupAt[a] = -1
	}
	blocksOf := make([]int, m.NumIndexes)
	base := 0
	for bi := range m.Blocks {
		var siteGroup []int32
		var groupIdx []int32
		for _, c := range m.Blocks[bi].Choices {
			for _, slot := range c.Slots {
				for _, o := range slot {
					if o.Index == NoIndex {
						siteGroup = append(siteGroup, -1)
						continue
					}
					if groupAt[o.Index] < base {
						groupAt[o.Index] = base + len(groupIdx)
						blocksOf[o.Index]++
						groupIdx = append(groupIdx, o.Index)
					}
					siteGroup = append(siteGroup, int32(groupAt[o.Index]-base))
				}
			}
		}
		s.siteGroup[bi] = siteGroup
		s.groupIdx[bi] = groupIdx
		s.lam[bi] = make([]float64, len(groupIdx))
		base += len(groupIdx)
	}
	// The incidence lists are windows into one array of all groups,
	// filled block by block so each list comes out ascending.
	s.incidence = make([][]blockGroup, m.NumIndexes)
	all := make([]blockGroup, base)
	for a, n := range blocksOf {
		s.incidence[a], all = all[:0:n], all[n:]
	}
	for bi, groupIdx := range s.groupIdx {
		for k, a := range groupIdx {
			s.incidence[a] = append(s.incidence[a], blockGroup{int32(bi), int32(k)})
		}
	}
	s.rowTerms = make([][]rowTerm, m.NumIndexes)
	for r, c := range m.Extra {
		for _, t := range c.Terms {
			s.rowTerms[t.Index] = append(s.rowTerms[t.Index], rowTerm{int32(r), t.Coef})
		}
	}
}

// applyWarm copies multipliers from a previous solve: each block adopts
// those of the donor block carrying its label, matched by index. Groups
// unknown to the donor (options added since — the interactive-tuning
// delta) are then *repriced*: each new option receives the smallest
// multiplier that keeps it from undercutting its slot's current dual
// minimum. Without repricing, fresh zero multipliers would collapse the
// block duals and squander the warm start — with it, the first
// iteration's bound matches the previous solve's, which is precisely
// the computation reuse behind Figure 6(b).
//
// Blocks without a donor — a statement the previous solve never saw, or
// a block without a label — are repriced wholesale: their index options
// are lifted just enough not to undercut the free access, the neutral
// dual price.
func (s *solver) applyWarm(w Dual) {
	donor := make(map[string]int, len(w))
	for i := range w {
		if w[i].ID != "" {
			donor[w[i].ID] = i
		}
	}
	// donorVal[a] is the donor's multiplier on index a, valid while
	// donorOf[a] names the block being warmed.
	donorVal := make([]float64, s.m.NumIndexes)
	donorOf := make([]int, s.m.NumIndexes)
	for a := range donorOf {
		donorOf[a] = -1
	}
	for bi, groupIdx := range s.groupIdx {
		matched := make([]bool, len(groupIdx))
		if oi, ok := donor[s.m.Blocks[bi].ID]; ok {
			for _, site := range w[oi].Sites {
				if site.Index >= 0 && int(site.Index) < s.m.NumIndexes {
					donorOf[site.Index], donorVal[site.Index] = bi, site.Value
				}
			}
			wt := s.m.Blocks[bi].Weight
			for k, a := range groupIdx {
				if donorOf[a] == bi {
					s.lam[bi][k] = donorVal[a]
					s.attract[a] += wt * donorVal[a]
					matched[k] = true
				}
			}
		}
		s.repriceNew(bi, matched)
	}
}

// repriceNew assigns multipliers to unmatched groups of block bi so
// that no slot's dual minimum drops below its value under the matched
// multipliers alone.
func (s *solver) repriceNew(bi int, matched []bool) {
	b := &s.m.Blocks[bi]
	groups := s.siteGroup[bi]
	lam := s.lam[bi]
	need := make([]float64, len(lam)) // required λ per unmatched group

	site := 0
	for ci := range b.Choices {
		for _, slot := range b.Choices[ci].Slots {
			// Pass 1: the slot's dual minimum over free and matched
			// options.
			slotMin := math.Inf(1)
			start := site
			for _, o := range slot {
				g := groups[site]
				site++
				cost := o.Cost
				if g >= 0 {
					if !matched[g] {
						continue
					}
					cost += lam[g]
				}
				if cost < slotMin {
					slotMin = cost
				}
			}
			if math.IsInf(slotMin, 1) {
				continue // slot entirely new; leave its λ at zero
			}
			// Pass 2: raise unmatched options to the minimum.
			site = start
			for _, o := range slot {
				g := groups[site]
				site++
				if g < 0 || matched[g] {
					continue
				}
				if d := slotMin - o.Cost; d > need[g] {
					need[g] = d
				}
			}
		}
	}
	wt := b.Weight
	for g, v := range need {
		if v > 0 && !matched[g] {
			lam[g] = v
			s.attract[s.groupIdx[bi][g]] += wt * v
		}
	}
}

// exportLambda snapshots the dual state under the blocks' labels.
func (s *solver) exportLambda() Dual {
	d := make(Dual, len(s.groupIdx))
	for bi, groupIdx := range s.groupIdx {
		sites := make([]DualSite, len(groupIdx))
		for k, a := range groupIdx {
			sites[k] = DualSite{Index: a, Value: s.lam[bi][k]}
		}
		d[bi] = DualBlock{ID: s.m.Blocks[bi].ID, Sites: sites}
	}
	return d
}

func (s *solver) timeUp() bool {
	if s.opts.Ctx != nil && s.opts.Ctx.Err() != nil {
		return true
	}
	return s.opts.TimeLimit > 0 && time.Since(s.start) > s.opts.TimeLimit
}

func (s *solver) gap() float64 {
	if math.IsInf(s.bestObj, 1) {
		return math.Inf(1)
	}
	den := math.Abs(s.bestObj)
	if den < 1e-9 {
		den = 1e-9
	}
	g := (s.bestObj - s.lower) / den
	if g < 0 {
		return 0
	}
	return g
}

func (s *solver) emit() {
	if s.events == nil {
		return
	}
	s.events(Event{
		Elapsed: time.Since(s.start),
		Iter:    s.iters,
		Lower:   s.lower,
		Upper:   s.bestObj,
		Gap:     s.gap(),
	})
}

// blockScratch holds one worker's reusable buffers for block-dual
// evaluation.
type blockScratch struct {
	uses []int32 // winning choice's group positions
	tmp  []int32 // current choice's group positions
}

// blockDual evaluates block bi under the current multipliers, leaving
// the minimum Lagrangian choice value as the return and the group
// positions (into lam[bi]/groupIdx[bi]) the winning choice selects in
// sc.uses. Indexes fixed out by branching are unavailable. It reads
// only state that is constant within a subgradient iteration (λ,
// fixings, the model), so distinct blocks may be evaluated
// concurrently.
func (s *solver) blockDual(bi int, sc *blockScratch) float64 {
	b := &s.m.Blocks[bi]
	lam := s.lam[bi]
	groups := s.siteGroup[bi]
	fixedOut := s.fixedOut
	best := math.Inf(1)
	sc.uses = sc.uses[:0]
	scratch := sc.tmp[:0]
	site := 0
	for ci := range b.Choices {
		c := &b.Choices[ci]
		v := c.Fixed
		scratch = scratch[:0]
		ok := true
		for _, slot := range c.Slots {
			slotBest := math.Inf(1)
			slotGroup := int32(-1)
			for _, o := range slot {
				g := groups[site]
				site++
				cost := o.Cost
				if o.Index != NoIndex {
					if fixedOut[o.Index] {
						continue
					}
					cost += lam[g]
				}
				if cost < slotBest {
					slotBest = cost
					slotGroup = g
				}
			}
			if math.IsInf(slotBest, 1) {
				// Unfillable; the remaining slots are still walked so
				// the site counter stays aligned for the next choice.
				ok = false
				v = math.Inf(1)
				continue
			}
			v += slotBest
			if slotGroup >= 0 {
				scratch = append(scratch, slotGroup)
			}
		}
		if ok && v < best {
			best = v
			sc.uses = append(sc.uses[:0], scratch...)
		}
	}
	sc.tmp = scratch
	return best
}

// evalBlocks computes every block dual of the current iteration into
// blockVal/blockUses. With more than one worker the blocks fan out
// over goroutines — they share only read-only state, and each result
// slot is written by exactly one worker — so the outcome is identical
// to the serial pass; callers reduce blockVal in block order, keeping
// floating-point sums deterministic.
func (s *solver) evalBlocks() {
	nb := len(s.m.Blocks)
	workers := s.workers
	if nb < minParallelBlocks {
		workers = 1
	}
	par.ForWorker(nb, workers, func(worker, bi int) {
		sc := &s.scratches[worker]
		s.blockVal[bi] = s.blockDual(bi, sc)
		s.blockUses[bi] = append(s.blockUses[bi][:0], sc.uses...)
	})
}

// minParallelBlocks gates the goroutine fan-out: tiny models are not
// worth the synchronization.
const minParallelBlocks = 16

// zSubproblem minimizes Σ (FixedCost[a] − attract[a])·z_a over the
// relaxed z polytope. It returns the optimal value (a valid lower-
// bound component) and the fractional minimizer, freshly allocated
// because callers keep it.
func (s *solver) zSubproblem() (float64, []float64) {
	m := s.m
	// rc may be reused across iterations: the LP copies its objective
	// (Problem.SetObj) and the knapsack reads it only within the call.
	rc := s.rc
	for a := range rc {
		rc[a] = m.FixedCost[a] - s.attract[a]
	}
	if len(m.Extra) == 0 {
		return s.fractionalKnapsack(rc)
	}
	// The polytope is identical between iterations (only the objective
	// and, under branching, bounds move), so the LP is built once,
	// retuned in place, and each re-solve warm-starts from the previous
	// optimal basis.
	if s.zProb == nil {
		s.zProb = m.zPolytopeLP(rc, s.fixedIn, s.fixedOut)
	} else {
		m.retuneZPolytope(s.zProb, rc, s.fixedIn, s.fixedOut)
	}
	sol := lp.SolveFrom(s.zProb, s.zBasis)
	s.tr.Add("lp.phase1", sol.Phase1Dur)
	s.tr.Add("lp.phase2", sol.Phase2Dur)
	if sol.Status == lp.Infeasible {
		return math.Inf(1), nil
	}
	if sol.Status != lp.Optimal || sol.X == nil {
		// Budget-exhausted (or otherwise unfinished) z-solve: its value
		// is not a valid bound component and there is no usable point.
		// NaN + nil tell the caller to stop tightening this iteration;
		// the previously proven bound stands.
		return math.NaN(), nil
	}
	s.zBasis = sol.Basis
	return sol.Obj, sol.X
}

// knapItem is an index the fractional knapsack may take: one with
// negative reduced cost, and its cost per byte.
type knapItem struct {
	a       int
	density float64
}

// fractionalKnapsack solves min Σ rc·z, Σ size·z ≤ Budget, z ∈ [0,1]
// greedily (plus fixed variables). Negative-cost items are taken in
// order of density until the budget binds.
func (s *solver) fractionalKnapsack(rc []float64) (float64, []float64) {
	m := s.m
	z := make([]float64, m.NumIndexes)
	budget := m.Budget
	unlimited := budget < 0
	val := 0.0
	// Fixed-in variables are mandatory.
	for a := range z {
		if s.fixedIn[a] {
			z[a] = 1
			val += rc[a]
			if !unlimited {
				budget -= m.Size[a]
			}
		}
	}
	if !unlimited && budget < 0 {
		return math.Inf(1), nil // fixings exceed the budget
	}
	items := s.items[:0]
	for a := 0; a < m.NumIndexes; a++ {
		if s.fixedIn[a] || s.fixedOut[a] || rc[a] >= 0 {
			continue
		}
		sz := m.Size[a]
		if sz <= 0 {
			z[a] = 1
			val += rc[a]
			continue
		}
		items = append(items, knapItem{a, rc[a] / sz})
	}
	s.items = items
	if unlimited {
		for _, it := range items {
			z[it.a] = 1
			val += rc[it.a]
		}
		return val, z
	}
	// The same pdqsort as sort.Slice, so equal densities end in the same
	// order, without sort.Slice's reflective swaps.
	slices.SortFunc(items, func(x, y knapItem) int { return cmp.Compare(x.density, y.density) })
	for _, it := range items {
		if budget <= 0 {
			break
		}
		sz := s.m.Size[it.a]
		if sz <= budget {
			z[it.a] = 1
			val += rc[it.a]
			budget -= sz
		} else {
			f := budget / sz
			z[it.a] = f
			val += rc[it.a] * f
			budget = 0
		}
	}
	return val, z
}

// subgradient runs the dual ascent loop, interleaving primal
// heuristics. It returns the best lower bound, the last fractional z,
// and the per-index usage of the final block duals (the x̂ side of the
// relaxed solution — branching targets x̂/ẑ disagreements). Only
// root-level bounds (updateGlobal) may raise the solver's global lower
// bound; bounds computed under branching fixings are valid for their
// subtree only.
func (s *solver) subgradient(iters int, updateGlobal bool) (float64, []float64, []bool) {
	m := s.m
	bestLB := math.Inf(-1)
	theta := 2.0
	stall := 0
	var zLast []float64
	usedLast := make([]bool, m.NumIndexes)

	usedCount := make([]float64, m.NumIndexes)
	for it := 0; it < iters; it++ {
		if s.timeUp() {
			break
		}
		s.iters++

		// 1. Block duals and usage (fanned out across the worker pool;
		// reduced here in block order for exact determinism).
		for a := range usedCount {
			usedCount[a] = 0
		}
		s.evalBlocks()
		lb := m.Const
		blockUses := s.blockUses
		for bi := range m.Blocks {
			lb += m.Blocks[bi].Weight * s.blockVal[bi]
			for _, g := range blockUses[bi] {
				usedCount[s.groupIdx[bi][g]]++
			}
		}

		// 2. z subproblem.
		zv, zf := s.zSubproblem()
		if math.IsInf(zv, 1) {
			// Current fixings infeasible.
			return math.Inf(1), nil, nil
		}
		if zf == nil {
			// Unfinished z-solve (pivot budget died): no valid bound or
			// point this iteration; keep what is already proven.
			break
		}
		lb += zv
		zLast = zf
		for a := range usedLast {
			usedLast[a] = usedCount[a] > 0
		}

		if lb > bestLB {
			bestLB = lb
			stall = 0
			if updateGlobal && lb > s.lower {
				s.lower = lb
				s.emit()
			}
		} else {
			stall++
			if stall >= 12 {
				theta /= 2
				stall = 0
				if theta < 1e-4 {
					break
				}
			}
		}

		// 3. Primal heuristics every few iterations.
		if it%6 == 0 || it == iters-1 {
			s.heuristics(zf)
			if s.gap() <= s.opts.GapTol {
				break
			}
		}

		// 4. Subgradient step on λ: g_ba = x_ba − z_a.
		norm := s.stepNorm(zf)
		if norm < 1e-12 {
			break
		}
		ub := s.bestObj
		if math.IsInf(ub, 1) {
			ub = bestLB * 1.5
			if ub <= bestLB {
				ub = bestLB + math.Abs(bestLB)*0.5 + 1
			}
		}
		step := theta * (ub - lb) / norm
		if step <= 0 {
			step = math.Abs(lb)*1e-6 + 1e-6
		}
		s.stepLambda(zf, step)
	}
	return bestLB, zLast, usedLast
}

// collectMoves lists in s.moves[bi] the groups of block bi whose
// multiplier the λ step can change, in group position order, one entry
// per group: the groups of the block's winning choice (x = 1), the
// groups of every index with z_a > 0, and those of an index with
// z_a < 0 (LP round-off) whose λ is positive. Any other group has x = 0
// and either z_a = 0, so g = −w_b·z_a is ±0, which adds +0 to the norm
// and leaves λ and attract bit for bit as they are, or z_a < 0 with
// λ = 0, which the step has always skipped (it would only raise λ by
// round-off). Visiting the listed groups block by block therefore
// reproduces a walk over all groups exactly.
//
// An entry is group<<1 | unmarked, so plain ascending order is group
// order with a group's x = 1 entry ahead of its z entry, and
// compacting by group keeps the x = 1 one. A block's list holds a
// handful of entries, so sorting it is an insertion sort.
func (s *solver) collectMoves(zf []float64) {
	for bi, uses := range s.blockUses {
		mv := s.moves[bi][:0]
		for _, k := range uses {
			mv = append(mv, uint32(k)<<1)
		}
		s.moves[bi] = mv
	}
	for a, z := range zf {
		if z == 0 {
			continue
		}
		for _, e := range s.incidence[a] {
			if z > 0 || s.lam[e.block][e.group] > 0 {
				s.moves[e.block] = append(s.moves[e.block], uint32(e.group)<<1|1)
			}
		}
	}
	for bi, mv := range s.moves {
		slices.Sort(mv)
		s.moves[bi] = slices.CompactFunc(mv, func(x, y uint32) bool { return x>>1 == y>>1 })
	}
}

// grad is the subgradient component of λ-step entry e in a block of
// weight wt, its index at z. Each group's multiplier is applied inside
// the weighted block term, so its effective coefficient is w_b·λ and
// its component is w_b·(x − z_a).
func grad(e uint32, wt, z float64) float64 {
	if e&1 == 0 {
		return wt * (1 - z)
	}
	return -wt * z
}

// stepNorm collects the groups the λ step can move under the block
// duals in blockUses and the z subproblem's point zf, and returns the
// squared norm of the subgradient.
func (s *solver) stepNorm(zf []float64) float64 {
	s.collectMoves(zf)
	norm := 0.0
	for bi, mv := range s.moves {
		wt, groupIdx := s.m.Blocks[bi].Weight, s.groupIdx[bi]
		for _, e := range mv {
			g := grad(e, wt, zf[groupIdx[e>>1]])
			norm += g * g
		}
	}
	return norm
}

// stepLambda moves the multipliers stepNorm collected by step along the
// subgradient, projected onto λ ≥ 0, and keeps attract in step.
func (s *solver) stepLambda(zf []float64, step float64) {
	for bi, mv := range s.moves {
		wt, lam, groupIdx := s.m.Blocks[bi].Weight, s.lam[bi], s.groupIdx[bi]
		for _, e := range mv {
			k := e >> 1
			g := grad(e, wt, zf[groupIdx[k]])
			nv := lam[k] + step*g
			if nv < 0 {
				nv = 0
			}
			s.attract[groupIdx[k]] += wt * (nv - lam[k])
			lam[k] = nv
		}
	}
}
