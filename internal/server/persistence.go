package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/cophy"
	"repro/internal/lagrange"
	"repro/internal/obs"
	"repro/internal/workload"
)

// ErrPersist wraps write failures of the durability layer; the HTTP
// layer maps it to 500 — the request was fine, the disk was not.
var ErrPersist = errors.New("persistence failure")

// stateSchema versions the daemon's persisted-state JSON inside the
// store's (separately versioned) container. Bump it whenever the
// meaning of persistedState changes; recovery refuses other schemas by
// number rather than guessing.
const stateSchema = 1

// persistedState is the snapshot payload: everything a restarted
// daemon needs to serve warm — the live stream with its clocks and ID
// allocator, the lifetime ingest counter and the session's warm state.
// The INUM template plans are not persisted: they are a function of
// the catalog, the cost model and the recovered statements, so the
// background warm-up derives them again. Snapshots that still carry a
// "plans" field load as before; encoding/json ignores it.
type persistedState struct {
	Schema   int                  `json:"schema"`
	Stream   workload.StreamState `json:"stream"`
	Ingested int64                `json:"ingested"`
	Session  *sessionState        `json:"session,omitempty"`
}

// sessionState is the wire form of cophy.SessionState plus the
// constraint knob the daemon derives its constraint set from. Duals and
// Selected are positional over Candidates, so the three always travel
// together.
type sessionState struct {
	BudgetFraction float64       `json:"budget_fraction"`
	Candidates     []IndexSpec   `json:"candidates"`
	Duals          lagrange.Dual `json:"duals,omitempty"`
	Selected       []bool        `json:"selected,omitempty"`
	Gap            float64       `json:"gap"`
}

// walRecord is one WAL entry. Ingest records are additive (replayed in
// order, they rebuild the stream mutation by mutation, including decay
// ticks and evictions); session records are absolute (the last one
// wins), carrying the candidate/constraint changes of the most recent
// recommendation and its dual state.
type walRecord struct {
	Type    string        `json:"type"` // "ingest" | "session"
	SQL     string        `json:"sql,omitempty"`
	Scale   float64       `json:"scale,omitempty"`
	Session *sessionState `json:"session,omitempty"`
}

// RecoveryStats reports what a restart rebuilt, surfaced in /stats.
type RecoveryStats struct {
	// Recovered is true when a data directory was recovered (even an
	// empty one).
	Recovered bool `json:"recovered"`
	// HadSnapshot / SnapshotBytes describe the loaded snapshot.
	HadSnapshot   bool `json:"had_snapshot"`
	SnapshotBytes int  `json:"snapshot_bytes,omitempty"`
	// ReplayedRecords counts WAL records applied on top of it.
	ReplayedRecords int `json:"replayed_records"`
	// TruncatedBytes counts torn-tail bytes cut off the WAL.
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
	// Statements is the live-statement count after recovery.
	Statements int `json:"statements"`
	// WarmSession is true when a session warm state was recovered — the
	// first /recommend will solve warm, not cold.
	WarmSession bool `json:"warm_session"`
	// Millis is the blocking recovery wall time. The INUM re-prepare no
	// longer blocks here: it runs in the background (see Stats.Warming)
	// and reports its own wall time in WarmMillis once finished.
	Millis float64 `json:"millis"`
	// WarmMillis is the background re-prepare wall time; zero until the
	// warming phase completes.
	WarmMillis float64 `json:"warm_millis,omitempty"`
}

// recover rebuilds the daemon from its store: snapshot first, then the
// WAL tail, then the derived state — the INUM cache is re-prepared over
// the recovered statements and the session is reconstructed around the
// recovered candidates and multipliers so the first solve is warm.
// ctx is the boot context threaded from NewCtx: replayed ingests run
// through the live applyIngest path, so cancelling it aborts a long
// replay the same way a request context aborts an ingest.
func (d *Daemon) recover(ctx context.Context) error {
	t0 := time.Now()
	var pending *sessionState
	info, err := d.store.Recover(
		func(payload []byte) error {
			var st persistedState
			if err := json.Unmarshal(payload, &st); err != nil {
				return fmt.Errorf("server: snapshot state: %w", err)
			}
			if st.Schema != stateSchema {
				return fmt.Errorf("server: snapshot carries state schema %d, this binary speaks %d — refusing to reinterpret a different generation's state", st.Schema, stateSchema)
			}
			if err := d.stream.Restore(d.cat, st.Stream); err != nil {
				return err
			}
			d.ingested.Store(st.Ingested)
			pending = st.Session
			return nil
		},
		func(rec []byte) error {
			var r walRecord
			if err := json.Unmarshal(rec, &r); err != nil {
				return fmt.Errorf("server: WAL record: %w", err)
			}
			switch r.Type {
			case "ingest":
				if _, err := d.applyIngest(ctx, r.SQL, r.Scale, false); err != nil {
					return fmt.Errorf("server: replaying ingest: %w", err)
				}
			case "session":
				pending = r.Session // absolute: last record wins
			default:
				return fmt.Errorf("server: unknown WAL record type %q", r.Type)
			}
			return nil
		},
	)
	if err != nil {
		return err
	}

	// Rebuild the derived state. The INUM re-prepare over the recovered
	// statements runs in the background (readiness must not wait on
	// derivation): it derives through the worker pool while requests
	// that arrive early prepare their own statements on demand,
	// deduplicated by the shape cache's singleflight.
	w := d.stream.Snapshot()
	warm := false
	if pending != nil && w.Size() > 0 {
		cands := make([]*catalog.Index, len(pending.Candidates))
		for i, sp := range pending.Candidates {
			cands[i] = sp.Index()
		}
		d.session = d.ad.RestoreSession(w, &cophy.SessionState{
			Candidates: cands,
			Duals:      pending.Duals,
			Selected:   pending.Selected,
			Gap:        pending.Gap,
		}, d.consFor(pending.BudgetFraction))
		d.lastBudget = pending.BudgetFraction
		warm = d.session.Warm()
	}
	d.recovery = RecoveryStats{
		Recovered:       true,
		HadSnapshot:     info.HadSnapshot,
		SnapshotBytes:   info.SnapshotBytes,
		ReplayedRecords: info.Records,
		TruncatedBytes:  info.TruncatedBytes,
		Statements:      w.Size(),
		WarmSession:     warm,
		Millis:          time.Since(t0).Seconds() * 1000,
	}
	if w.Size() > 0 {
		d.warming.Store(true)
		go d.warmPrepare(w)
	}
	return nil
}

// warmPrepare is the background warming phase of recovery: derive the
// template plans of every recovered statement's shape through the INUM
// worker pool. The warm-up is detached by design: recovery returns
// before it runs, no request is waiting on it, and the daemon serves
// (on-demand-preparing) while it proceeds. Stats.Warming is true until
// it finishes.
func (d *Daemon) warmPrepare(w *workload.Workload) {
	t0 := time.Now()
	d.ad.Inum.Prepare(w)
	d.recMu.Lock()
	d.recovery.WarmMillis = time.Since(t0).Seconds() * 1000
	d.recMu.Unlock()
	d.warming.Store(false)
}

// consFor derives the constraint set from the budget knob, the same
// mapping Recommend applies per request.
func (d *Daemon) consFor(budgetFraction float64) cophy.Constraints {
	if budgetFraction > 0 {
		return cophy.FractionOfData(d.cat, budgetFraction)
	}
	return cophy.NoConstraints()
}

// appendWAL marshals and appends one record, wrapping failures in
// ErrPersist. Every failure is counted in persist_errors here, so no
// call site can forget to — and every failure flips the daemon into
// degraded mode: a store whose Append failed has already tried an
// immediate tail repair, so a failure surfacing here means the data
// directory is genuinely refusing writes and further mutations must
// be refused until the probe loop finds it writable again.
func (d *Daemon) appendWAL(ctx context.Context, r walRecord) error {
	defer obs.TraceFrom(ctx).StartSpan("wal.append")()
	raw, err := json.Marshal(r)
	if err == nil {
		err = d.store.Append(raw)
	}
	if err != nil {
		d.persistErrors.Inc()
		d.enterDegraded(err)
		return fmt.Errorf("%w: %v", ErrPersist, err)
	}
	d.walRecords.Inc()
	return nil
}

// sessionStateLocked exports the session's warm state in wire form.
// The caller holds the session semaphore.
func (d *Daemon) sessionStateLocked(budgetFraction float64) *sessionState {
	if d.session == nil {
		return nil
	}
	st := d.session.ExportState()
	if st == nil {
		return nil
	}
	specs := make([]IndexSpec, len(st.Candidates))
	for i, ix := range st.Candidates {
		specs[i] = IndexSpec{Table: ix.Table, Key: ix.Key, Include: ix.Include, Clustered: ix.Clustered}
	}
	return &sessionState{
		BudgetFraction: budgetFraction,
		Candidates:     specs,
		Duals:          st.Duals,
		Selected:       st.Selected,
		Gap:            st.Gap,
	}
}

// SnapshotResult reports one durable snapshot.
type SnapshotResult struct {
	// WALSeq is the log position replay resumes from.
	WALSeq uint64 `json:"wal_seq"`
	// Bytes is the snapshot payload size.
	Bytes int `json:"bytes"`
	// PrunedSegments counts WAL segments the snapshot retired.
	PrunedSegments int `json:"pruned_segments"`
	// Statements is the live-statement count captured.
	Statements int `json:"statements"`
	// Millis is the snapshot wall time.
	Millis float64 `json:"millis"`
}

// WriteSnapshot captures the daemon's full state into a durable
// snapshot and truncates the WAL it supersedes. The cut is atomic with
// respect to ingestion (the persistence mutex orders the WAL rotation
// against every additive record), while the session is exported under
// its own semaphore afterwards — session records are absolute, so a
// recommendation racing the snapshot is replayed idempotently from the
// surviving tail. Safe for concurrent use; called by the periodic
// snapshotter, the /snapshot admin endpoint and the shutdown flush.
func (d *Daemon) WriteSnapshot(ctx context.Context) (SnapshotResult, error) {
	if d.store == nil {
		return SnapshotResult{}, fmt.Errorf("server: no data directory configured")
	}
	// A degraded daemon refuses the snapshot up front: the data
	// directory is known-unwritable, and failing fast with the cause
	// beats rediscovering it through a doomed rotation.
	if err := d.checkWritable(); err != nil {
		return SnapshotResult{}, err
	}
	d.snapMu.Lock()
	defer d.snapMu.Unlock()

	t0 := time.Now()
	d.pMu.Lock()
	seq, err := d.store.Rotate()
	if err != nil {
		d.pMu.Unlock()
		d.persistErrors.Add(1)
		d.enterDegraded(err)
		return SnapshotResult{}, fmt.Errorf("%w: %v", ErrPersist, err)
	}
	streamState := d.stream.Export()
	ingested := d.ingested.Load()
	d.pMu.Unlock()

	var sess *sessionState
	select {
	case d.sem <- struct{}{}:
		sess = d.sessionStateLocked(d.lastBudget)
		<-d.sem
	case <-ctx.Done():
		return SnapshotResult{}, ctx.Err()
	}

	payload, err := json.Marshal(persistedState{
		Schema:   stateSchema,
		Stream:   streamState,
		Ingested: ingested,
		Session:  sess,
	})
	if err != nil {
		return SnapshotResult{}, err
	}
	info, err := d.store.WriteSnapshot(seq, payload)
	if err != nil {
		d.persistErrors.Add(1)
		d.enterDegraded(err)
		return SnapshotResult{}, fmt.Errorf("%w: %v", ErrPersist, err)
	}
	d.snapshots.Add(1)
	return SnapshotResult{
		WALSeq:         info.WALSeq,
		Bytes:          info.Bytes,
		PrunedSegments: info.PrunedSegments,
		Statements:     len(streamState.Entries),
		Millis:         time.Since(t0).Seconds() * 1000,
	}, nil
}

// StartSnapshots begins periodic snapshots every interval until the
// context is cancelled. It returns immediately; errors are counted in
// /stats (persist_errors) rather than killing the loop — a full disk
// at 3am should degrade durability, not availability.
func (d *Daemon) StartSnapshots(ctx context.Context, interval time.Duration) {
	if d.store == nil || interval <= 0 {
		return
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				// Errors are already counted by WriteSnapshot itself.
				_, _ = d.WriteSnapshot(ctx)
			}
		}
	}()
}
