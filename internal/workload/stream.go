package workload

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/catalog"
)

// StreamConfig tunes a Stream.
type StreamConfig struct {
	// HalfLife is the exponential-decay half-life in ticks: after
	// HalfLife calls to Tick, an unrefreshed statement's weight has
	// halved. Zero or negative disables decay (pure accumulation).
	HalfLife float64
	// MinWeight evicts statements whose decayed weight falls below it.
	// Zero means 1e-3 when decay is enabled; eviction never runs
	// without decay.
	MinWeight float64
}

// Stream aggregates an unbounded statement stream into a bounded live
// workload. Statements are deduplicated structurally (two observations
// with the same rendered form are one workload entry whose weight
// accumulates), weights decay exponentially per Tick, and entries
// whose weight decays away are evicted. Each distinct statement
// receives a stable ID at first observation and keeps it for life, and
// successive snapshots share its statement structures, so downstream
// consumers — a session's compiled slabs, the solver's block-labeled
// warm starts — treat successive snapshots as deltas of one living
// workload rather than unrelated problems.
//
// Stream is safe for concurrent use.
type Stream struct {
	mu        sync.Mutex
	decay     float64
	minWeight float64
	entries   map[string]*streamEntry
	order     []*streamEntry
	nextID    int
	observed  int64
	ticks     int64
}

// streamEntry is one live statement with its decayed weight.
type streamEntry struct {
	st     *Statement
	weight float64
}

// NewStream builds an empty stream aggregator.
func NewStream(cfg StreamConfig) *Stream {
	decay := 1.0
	if cfg.HalfLife > 0 {
		decay = math.Exp2(-1 / cfg.HalfLife)
	}
	minWeight := cfg.MinWeight
	if minWeight <= 0 {
		minWeight = 1e-3
	}
	return &Stream{
		decay:     decay,
		minWeight: minWeight,
		entries:   make(map[string]*streamEntry),
	}
}

// Observe folds one statement into the live workload: a structurally
// new statement is adopted (the stream takes ownership and assigns its
// stable ID); a known one adds its weight to the existing entry. It
// returns the entry's stable ID.
func (st *Stream) Observe(s *Statement) string {
	key := s.String()
	st.mu.Lock()
	defer st.mu.Unlock()
	st.observed++
	if e, ok := st.entries[key]; ok {
		e.weight += s.Weight
		return e.st.ID()
	}
	id := fmt.Sprintf("stream-%06d", st.nextID)
	st.nextID++
	if s.Query != nil {
		s.Query.ID = id
	} else {
		s.Update.ID = id
	}
	e := &streamEntry{st: s, weight: s.Weight}
	st.entries[key] = e
	st.order = append(st.order, e)
	return id
}

// Tick advances the decay clock once: every weight is multiplied by
// the per-tick decay factor and entries falling below the eviction
// threshold are dropped. Without decay configured, Tick only counts.
func (st *Stream) Tick() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.ticks++
	if st.decay >= 1 {
		return
	}
	kept := st.order[:0]
	for _, e := range st.order {
		e.weight *= st.decay
		if e.weight < st.minWeight {
			delete(st.entries, e.st.String())
			continue
		}
		kept = append(kept, e)
	}
	for i := len(kept); i < len(st.order); i++ {
		st.order[i] = nil
	}
	st.order = kept
}

// Snapshot materializes the live workload: the surviving statements in
// first-seen order with their current decayed weights. The returned
// workload shares the (immutable) statement structures but owns its
// weight values, so later Observe/Tick calls do not disturb it.
func (st *Stream) Snapshot() *Workload {
	st.mu.Lock()
	defer st.mu.Unlock()
	w := &Workload{Name: fmt.Sprintf("stream@%d", st.ticks)}
	for _, e := range st.order {
		w.Statements = append(w.Statements, &Statement{
			Query:  e.st.Query,
			Update: e.st.Update,
			Weight: e.weight,
		})
	}
	return w
}

// StreamEntry is the portable form of one live statement: its
// canonical rendering (the parser dialect round-trips it), its stable
// ID and its current decayed weight.
type StreamEntry struct {
	SQL    string  `json:"sql"`
	ID     string  `json:"id"`
	Weight float64 `json:"weight"`
}

// StreamState is the portable form of a Stream — everything Restore
// needs to rebuild an equivalent aggregator: the live entries in
// first-seen order, the ID allocator position and the clocks. Weights
// are exact (float64 survives JSON round-trips bit-for-bit), so a
// restored stream decays and evicts on exactly the same Ticks the
// original would have.
type StreamState struct {
	Entries  []StreamEntry `json:"entries"`
	NextID   int           `json:"next_id"`
	Observed int64         `json:"observed"`
	Ticks    int64         `json:"ticks"`
}

// Export captures the stream's state for persistence.
func (st *Stream) Export() StreamState {
	st.mu.Lock()
	defer st.mu.Unlock()
	state := StreamState{
		Entries:  make([]StreamEntry, len(st.order)),
		NextID:   st.nextID,
		Observed: st.observed,
		Ticks:    st.ticks,
	}
	for i, e := range st.order {
		state.Entries[i] = StreamEntry{SQL: e.st.String(), ID: e.st.ID(), Weight: e.weight}
	}
	return state
}

// Restore rebuilds the stream from an exported state, re-parsing each
// entry's canonical rendering against the catalog and pinning its
// original ID and decayed weight. The stream must be empty (freshly
// constructed); statements observed after Restore merge with the
// restored entries exactly as they would have pre-export, and the ID
// allocator resumes where it left off so replayed observations mint the
// same IDs they were first given.
func (st *Stream) Restore(cat *catalog.Catalog, state StreamState) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.entries) != 0 || st.observed != 0 {
		return fmt.Errorf("workload: Restore into a non-empty stream")
	}
	for i, ent := range state.Entries {
		w, err := Parse(cat, ent.SQL+";")
		if err != nil {
			return fmt.Errorf("workload: restore entry %d: %w", i, err)
		}
		if w.Size() != 1 {
			return fmt.Errorf("workload: restore entry %d: %q is %d statements", i, ent.SQL, w.Size())
		}
		s := w.Statements[0]
		if s.Query != nil {
			s.Query.ID = ent.ID
		} else {
			s.Update.ID = ent.ID
		}
		s.Weight = ent.Weight
		key := s.String()
		if _, dup := st.entries[key]; dup {
			return fmt.Errorf("workload: restore entry %d: duplicate statement %q", i, key)
		}
		e := &streamEntry{st: s, weight: ent.Weight}
		st.entries[key] = e
		st.order = append(st.order, e)
	}
	st.nextID = state.NextID
	st.observed = state.Observed
	st.ticks = state.Ticks
	return nil
}

// LiveWeight returns the summed decayed weight of the live workload.
func (st *Stream) LiveWeight() float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var sum float64
	for _, e := range st.order {
		sum += e.weight
	}
	return sum
}

// Len returns the number of live (distinct, unevicted) statements.
func (st *Stream) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.order)
}

// Observed returns the total number of Observe calls.
func (st *Stream) Observed() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.observed
}

// Ticks returns the number of Tick calls.
func (st *Stream) Ticks() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ticks
}

// Generation identifies the stream's mutation state: it changes
// whenever the live workload may have changed (every Observe, Tick or
// Restore) and is stable between mutations, so it keys an answer
// computed over the stream.
func (st *Stream) Generation() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.observed + st.ticks
}
