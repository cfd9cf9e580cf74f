package server

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
)

// IndexSpec is the wire form of an index.
type IndexSpec struct {
	Table     string   `json:"table"`
	Key       []string `json:"key"`
	Include   []string `json:"include,omitempty"`
	Clustered bool     `json:"clustered,omitempty"`
	// SizeBytes is filled in responses only.
	SizeBytes int64 `json:"size_bytes,omitempty"`
}

// Index converts the spec to a catalog index.
func (sp IndexSpec) Index() *catalog.Index {
	return &catalog.Index{
		Table:     sp.Table,
		Key:       append([]string(nil), sp.Key...),
		Include:   append([]string(nil), sp.Include...),
		Clustered: sp.Clustered,
	}
}

// specOf renders an index (with its size, when the table is known).
func specOf(cat *catalog.Catalog, ix *catalog.Index) IndexSpec {
	sp := IndexSpec{Table: ix.Table, Key: ix.Key, Include: ix.Include, Clustered: ix.Clustered}
	if t := cat.Table(ix.Table); t != nil {
		sp.SizeBytes = ix.Bytes(t)
	}
	return sp
}

// ingestRequest is the POST /ingest body.
type ingestRequest struct {
	// SQL holds semicolon-separated statements in the workload parser's
	// dialect, each with an optional WEIGHT suffix.
	SQL string `json:"sql"`
	// WeightScale, when positive, multiplies every statement weight.
	WeightScale float64 `json:"weight_scale,omitempty"`
}

// whatIfRequest is the POST /whatif body.
type whatIfRequest struct {
	SQL     string      `json:"sql"`
	Indexes []IndexSpec `json:"indexes,omitempty"`
}

// Handler returns the daemon's HTTP API:
//
//	POST /ingest    {"sql": "...; ...", "weight_scale": 2}  → IngestResult
//	POST /whatif    {"sql": "...", "indexes": [...]}        → WhatIfResult
//	POST /recommend {"budget_fraction": 0.5}                → RecommendResult
//	POST /snapshot  (empty body)                            → SnapshotResult
//	GET  /stats                                             → Stats
//	GET  /metrics                                           → Prometheus text format
//	GET  /debug/traces                                      → flight-recorder dump
//	GET  /healthz                                           → 200 ok
//
// With an auth token configured, the mutating endpoints (/ingest,
// /recommend, /snapshot) and /debug/traces require `Authorization:
// Bearer <token>`.
//
// Every endpoint runs under the tracing middleware: the response
// carries an X-Trace-Id header, the request's latency lands in the
// per-endpoint histogram, and the trace's span breakdown (queue wait,
// solver phases, WAL appends) is folded into the span histograms —
// and, when request logging is configured, emitted as one structured
// log line.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", d.instrument("ingest", d.guard(func(w http.ResponseWriter, r *http.Request) {
		var req ingestRequest
		if !decode(w, r, &req) {
			return
		}
		res, err := d.Ingest(r.Context(), req.SQL, req.WeightScale)
		d.reply(w, res, err)
	})))
	mux.HandleFunc("POST /whatif", d.instrument("whatif", func(w http.ResponseWriter, r *http.Request) {
		var req whatIfRequest
		if !decode(w, r, &req) {
			return
		}
		indexes := make([]*catalog.Index, len(req.Indexes))
		for i, sp := range req.Indexes {
			indexes[i] = sp.Index()
		}
		res, err := d.WhatIf(req.SQL, indexes)
		d.reply(w, res, err)
	}))
	mux.HandleFunc("POST /recommend", d.instrument("recommend", d.guard(func(w http.ResponseWriter, r *http.Request) {
		var req RecommendOptions
		if !decode(w, r, &req) {
			return
		}
		// The request context (client disconnects cancel it) bounded by
		// the configured per-request deadline; the solver stops when it
		// is done.
		ctx := r.Context()
		if d.reqTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d.reqTimeout)
			defer cancel()
		}
		res, err := d.Recommend(ctx, req)
		d.reply(w, res, err)
	})))
	mux.HandleFunc("POST /snapshot", d.instrument("snapshot", d.guard(func(w http.ResponseWriter, r *http.Request) {
		// Admin: force a durable snapshot now (before a deploy, after a
		// bulk load) instead of waiting for the periodic one.
		res, err := d.WriteSnapshot(r.Context())
		d.reply(w, res, err)
	})))
	mux.HandleFunc("GET /stats", d.instrument("stats", func(w http.ResponseWriter, r *http.Request) {
		d.reply(w, d.Snapshot(), nil)
	}))
	// /debug/traces dumps the flight recorder: the slowest retained
	// requests per endpoint and every retained shed/error request, each
	// with its full span breakdown. Guarded by the bearer token (when
	// one is set): unlike /stats it exposes per-request internals.
	mux.HandleFunc("GET /debug/traces", d.instrument("traces", d.guard(func(w http.ResponseWriter, r *http.Request) {
		d.reply(w, d.flight.Dump(), nil)
	})))
	mux.HandleFunc("GET /metrics", d.instrument("metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = d.reg.WritePrometheus(w)
	}))
	// /healthz speaks the serving state machine: 200 {"status":
	// "healthy"} when fully serving; 503 with "degraded" (plus the
	// cause) while the data directory is failing and mutations are
	// refused; 503 with "draining" during shutdown so load balancers
	// stop routing here before the listener closes. The warming flag
	// rides along while the post-recovery background re-prepare is
	// still running — informational only, never a 503: the daemon
	// serves correct (if slower) answers during the warm-up.
	mux.HandleFunc("GET /healthz", d.instrument("healthz", func(w http.ResponseWriter, r *http.Request) {
		state, cause := d.Health()
		code := http.StatusOK
		if state != "healthy" {
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		//lint:ignore errbody healthz speaks the health body (status/cause/warming), not the error shape; its 503 is a state report, not a refusal
		w.WriteHeader(code)
		enc := json.NewEncoder(w)
		_ = enc.Encode(struct {
			Status  string `json:"status"`
			Cause   string `json:"cause,omitempty"`
			Warming bool   `json:"warming,omitempty"`
		}{Status: state, Cause: cause, Warming: d.warming.Load()})
	}))
	return mux
}

// statusWriter captures the response status for the request metrics
// and log line.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	//lint:ignore errbody middleware pass-through: records the status a handler already wrote, originates nothing
	sw.ResponseWriter.WriteHeader(code)
}

// instrument is the tracing middleware: it mints a trace for the
// request, propagates it through the context (the solver layers record
// their spans onto it), echoes its ID in the X-Trace-Id header, and on
// completion folds the request into the per-endpoint latency histogram
// and request counter and the trace's spans into the span histograms.
// It wraps OUTSIDE the auth guard, so rejected requests are measured
// too.
func (d *Daemon) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := d.reg.Histogram("cophyd_http_request_seconds", helpHTTPSeconds, obs.L("endpoint", endpoint))
	return func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace()
		r = r.WithContext(obs.WithTrace(r.Context(), tr))
		w.Header().Set("X-Trace-Id", tr.ID)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		dur := time.Since(tr.Start)
		hist.Observe(dur)
		d.reg.Counter("cophyd_http_requests_total", helpHTTPRequests,
			obs.L("endpoint", endpoint), obs.L("code", strconv.Itoa(sw.code))).Inc()
		d.flight.Note(endpoint, sw.code, tr.Start, dur, tr)
		spans := tr.Spans()
		for _, sp := range spans {
			d.reg.Histogram("cophyd_span_seconds", helpSpanSeconds, obs.L("span", sp.Name)).Observe(sp.Dur)
		}
		if d.reqLog != nil {
			attrs := []any{
				slog.String("trace_id", tr.ID),
				slog.String("endpoint", endpoint),
				slog.Int("status", sw.code),
				slog.Duration("dur", dur),
			}
			spanAttrs := make([]any, 0, len(spans))
			for _, sp := range spans {
				spanAttrs = append(spanAttrs, slog.Duration(sp.Name, sp.Dur))
			}
			if len(spanAttrs) > 0 {
				attrs = append(attrs, slog.Group("spans", spanAttrs...))
			}
			d.reqLog.Info("request", attrs...)
		}
	}
}

// guard wraps a mutating handler with the optional bearer-token check
// (the ROADMAP's minimal daemon-auth slice). Comparison is
// constant-time; a mismatch answers 401 with a JSON error body and a
// WWW-Authenticate challenge.
func (d *Daemon) guard(h http.HandlerFunc) http.HandlerFunc {
	if d.authToken == "" {
		return h
	}
	want := []byte("Bearer " + d.authToken)
	return func(w http.ResponseWriter, r *http.Request) {
		got := []byte(r.Header.Get("Authorization"))
		if subtle.ConstantTimeCompare(got, want) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="cophyd"`)
			writeError(w, http.StatusUnauthorized, errors.New("missing or invalid bearer token"), 0)
			return
		}
		h(w, r)
	}
}

// decode reads a JSON body, answering 400 on malformed input.
func decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err), 0)
		return false
	}
	return true
}

// reply writes a JSON response. Errors map by kind: a shed request
// (queue full or queue timeout) is 429 with a Retry-After computed
// from observed solve latency; a degraded daemon refusing a mutation
// is 503 with the cause and a Retry-After matched to its re-probe
// cadence; a dead request context (deadline or client cancellation)
// is 503 with Retry-After — the service is fine, this request ran out
// of time; an over-cap candidate set is 413; a durability-layer write
// failure is 500 (the request was fine, the disk was not); everything
// else is 422 (the request was well-formed but not servable: parse
// errors, unknown tables, empty workload).
func (d *Daemon) reply(w http.ResponseWriter, res any, err error) {
	if err != nil {
		switch {
		case errors.Is(err, ErrOverloaded):
			writeError(w, http.StatusTooManyRequests, err, d.adm.retryAfter())
		case errors.Is(err, ErrDegraded):
			writeError(w, http.StatusServiceUnavailable, err, d.degradedRetryAfter())
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			writeError(w, http.StatusServiceUnavailable, err, d.adm.retryAfter())
		case errors.Is(err, ErrTooManyCandidates):
			writeError(w, http.StatusRequestEntityTooLarge, err, 0)
		case errors.Is(err, ErrPersist):
			writeError(w, http.StatusInternalServerError, err, 0)
		default:
			writeError(w, http.StatusUnprocessableEntity, err, 0)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// An encode error means the connection is gone; nothing recoverable.
	_ = enc.Encode(res)
}

// degradedRetryAfter suggests when a caller refused by degraded mode
// should retry: one probe interval, floor one second.
func (d *Daemon) degradedRetryAfter() int {
	sec := int(d.probeBase / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// errorBody is the single error shape every status speaks — 400, 401,
// 413, 422, 429, 500 and 503 all answer {"error": ..., "status": ...}
// with retry_after_seconds present exactly when a Retry-After header
// accompanies it, so clients parse one shape and machines can branch
// on status without reading prose.
type errorBody struct {
	Error      string `json:"error"`
	Status     int    `json:"status"`
	RetryAfter int    `json:"retry_after_seconds,omitempty"`
}

func writeError(w http.ResponseWriter, status int, err error, retryAfter int) {
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: err.Error(), Status: status, RetryAfter: retryAfter})
}
