// Command cophyd is the online CoPhy advisor daemon. It serves a
// long-running HTTP API over one advisor: statements stream in through
// POST /ingest and aggregate into a live, exponentially decayed
// workload; POST /whatif prices hypothetical configurations from the
// INUM shape cache with no daemon-wide lock; POST /recommend solves the
// index-selection problem over the live workload, warm-starting each
// re-solve from the previous session state so small ingestion deltas
// re-optimize incrementally.
//
// With -data-dir the daemon is durable: accepted ingest batches and
// session changes are written to a checksummed, segment-rotated WAL,
// periodic (and shutdown) snapshots capture the full state, and a
// restart — graceful or kill -9 — recovers the live workload, its decay
// clocks, and the previous session's multipliers, so the first
// /recommend after the restart solves warm.
//
// Examples:
//
//	cophyd -addr 127.0.0.1:8080 -scale 1 -half-life 64
//	cophyd -addr 127.0.0.1:0          # pick a free port, print it
//	cophyd -data-dir /var/lib/cophyd -snapshot-interval 5m -auth-token s3cret
//
// See cmd/cophyd/README.md for the API.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/tpch"
)

// listenLoopback listens on addr only when its host resolves to a
// loopback interface; anything else is refused so a typo cannot expose
// the profiler to the network.
func listenLoopback(addr string) (net.Listener, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("pprof-addr: %w", err)
	}
	ip := net.ParseIP(host)
	if ip == nil {
		if host != "localhost" {
			return nil, fmt.Errorf("pprof-addr: host %q is not a loopback address; use 127.0.0.1, ::1 or localhost", host)
		}
	} else if !ip.IsLoopback() {
		return nil, fmt.Errorf("pprof-addr: %s is not a loopback address; the profiler serves loopback only", ip)
	}
	return net.Listen("tcp", addr)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address; port 0 picks a free port")
	scale := flag.Float64("scale", 1.0, "TPC-H scale factor of the served catalog")
	skew := flag.Float64("skew", 0, "data skew z (0 = uniform, 2 = highly skewed)")
	system := flag.String("system", "A", "cost-model profile: A or B")
	gap := flag.Float64("gap", 0.05, "solver optimality-gap tolerance")
	rootIters := flag.Int("root-iters", 160, "subgradient iteration cap at the root")
	maxNodes := flag.Int("max-nodes", 32, "branch-and-bound node cap")
	halfLife := flag.Float64("half-life", 64, "ingestion decay half-life in batches (negative disables decay)")
	minWeight := flag.Float64("min-weight", 1e-3, "eviction threshold for decayed statements")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request deadline for /recommend; the solver inherits the remaining time (0 disables)")
	maxCandidates := flag.Int("max-candidates", 4096, "cap on the live candidate set a /recommend may solve over (the session holds no other); exceeding it answers 413 (0 disables)")
	maxQueue := flag.Int("max-queue", 16, "bound on /recommend requests waiting for the session; arrivals beyond it are shed with 429 + Retry-After")
	queueTimeout := flag.Duration("queue-timeout", 2*time.Second, "longest a /recommend may wait in the admission queue before it is shed with 429")
	dataDir := flag.String("data-dir", "", "durable state directory: WAL + snapshots, recovered on startup (empty disables persistence)")
	snapInterval := flag.Duration("snapshot-interval", 5*time.Minute, "period between durable snapshots when -data-dir is set (0 = only on shutdown and POST /snapshot)")
	authToken := flag.String("auth-token", "", "bearer token required on mutating endpoints (/ingest, /recommend, /snapshot); empty disables auth")
	fsync := flag.Bool("fsync", false, "fsync the WAL after every record (survives machine crashes, not just process crashes)")
	logRequests := flag.Bool("log-requests", false, "log one structured line per HTTP request (trace ID, endpoint, status, span breakdown) to stderr")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060); refused for non-loopback hosts, never on the public mux (empty disables)")
	flag.Parse()

	prof, err := engine.SystemByName(*system)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	cat := tpch.Build(tpch.Config{ScaleFactor: *scale, Skew: *skew})
	eng := engine.New(cat, prof)

	var store *persist.Store
	if *dataDir != "" {
		var err error
		store, err = persist.Open(*dataDir, persist.Options{Sync: *fsync})
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}

	var reqLog *slog.Logger
	if *logRequests {
		reqLog = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	// Boot under a signal-aware context: a SIGTERM during a long WAL
	// replay aborts recovery instead of blocking shutdown until it
	// finishes (the replay is idempotent — the next boot redoes it).
	bootCtx, stopBoot := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	d, err := server.NewCtx(bootCtx, server.Config{
		Catalog:        cat,
		Engine:         eng,
		Advisor:        cophy.Options{GapTol: *gap, RootIters: *rootIters, MaxNodes: *maxNodes},
		HalfLife:       *halfLife,
		MinWeight:      *minWeight,
		RequestTimeout: *reqTimeout,
		MaxCandidates:  *maxCandidates,
		MaxQueue:       *maxQueue,
		QueueTimeout:   *queueTimeout,
		Store:          store,
		AuthToken:      *authToken,
		RequestLog:     reqLog,
	})
	stopBoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if store != nil {
		rec := d.Snapshot().Recovery
		fmt.Printf("cophyd recovered %d statements, %d WAL records replayed, warm session: %v (%.0f ms)\n",
			rec.Statements, rec.ReplayedRecords, rec.WarmSession, rec.Millis)
	}

	// The pprof listener is deliberately separate from the public mux:
	// profiles expose internals (memory contents, timings) and must
	// never ride on the service port or hide behind the bearer token —
	// loopback-only, or not at all.
	if *pprofAddr != "" {
		pln, err := listenLoopback(*pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Printf("cophyd pprof listening on %s\n", pln.Addr())
		go func() {
			psrv := &http.Server{Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
			if err := psrv.Serve(pln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "pprof serve error:", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	// The listening line is part of the interface: wrappers (the CI
	// smoke test, scripts) parse the port from it.
	fmt.Printf("cophyd listening on %s\n", ln.Addr())

	srv := &http.Server{Handler: d.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- srv.Serve(ln)
	}()

	// Periodic durable snapshots, bounding WAL replay time.
	snapCtx, stopSnaps := context.WithCancel(context.Background())
	defer stopSnaps()
	if store != nil {
		d.StartSnapshots(snapCtx, *snapInterval)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		fmt.Println("cophyd shutting down")
		// Drain first: /healthz flips to 503 "draining" so load
		// balancers stop routing here while in-flight requests finish.
		d.StartDraining()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-serveErr
		// Graceful-shutdown flush: one final snapshot folds the WAL
		// tail in, so the next start replays (almost) nothing.
		if store != nil {
			stopSnaps()
			if _, err := d.WriteSnapshot(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "shutdown snapshot:", err)
			}
			_ = store.Close()
		}
	case err := <-serveErr:
		// The listener died out from under us: exit non-zero rather
		// than lingering as a healthy-looking process that serves
		// nothing.
		if err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "serve error:", err)
			os.Exit(1)
		}
	}
}
