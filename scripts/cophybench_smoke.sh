#!/usr/bin/env bash
# Boots cophyd with request logging on, drives it with a short
# fixed-rate cophybench burst, and asserts the whole observability
# surface end to end: the bench completes every endpoint in its mix,
# the daemon's /metrics histograms saw the traffic, the request log
# carries trace IDs, and the daemon exits 0 on SIGTERM. Usage:
#
#   scripts/cophybench_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

BINDIR=$(mktemp -d)
go build -o "$BINDIR" ./cmd/cophyd ./cmd/cophybench

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

LOG=$(mktemp)
# Small catalog and tight solver caps keep a /recommend at a few
# milliseconds, so a 40 req/s open loop stays comfortably under
# saturation on a shared runner.
"$BINDIR/cophyd" -addr 127.0.0.1:0 -scale 0.1 -root-iters 80 -max-nodes 8 \
  -log-requests >"$LOG" 2>&1 &
PID=$!
trap 'kill $PID 2>/dev/null || true' EXIT

ADDR=""
for _ in $(seq 1 50); do
  ADDR=$(sed -n 's/^cophyd listening on //p' "$LOG" | head -1)
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "cophyd did not start; log:" >&2; cat "$LOG" >&2; exit 1; }
BASE="http://$ADDR"
echo "daemon at $BASE"

# The bench itself exits non-zero if any endpoint in the mix completed
# zero successful requests. The SLO is deliberately generous (shared
# runners are noisy) and advisory on top — the verdict lines must
# appear, but a slow runner must not fail the smoke.
BENCH_OUT=$("$BINDIR/cophybench" -addr "$ADDR" -clients 4 -rate 40 -duration 8s -seed 1 \
  -slo 'recommend.p99<=30s,whatif.p99<=30s,ingest.p99<=30s,error_rate<=20%,shed_rate<=50%' \
  -slo-advisory | tee /dev/stderr)
echo "$BENCH_OUT" | grep -q 'SLO verdicts:' || fail "bench printed no SLO verdicts"
echo "$BENCH_OUT" | grep -q 'recommend.p99<=30s' || fail "bench verdicts missing the recommend objective"
VERDICTS=$(echo "$BENCH_OUT" | grep -cE '^  (PASS|FAIL)  ' || true)
[ "$VERDICTS" = "5" ] || fail "bench printed $VERDICTS SLO verdict lines, want 5"

# The daemon side of the story: every endpoint the bench drove must
# show up in the /metrics histograms, and the solver spans must have
# fired.
METRICS=$(curl -fsS "$BASE/metrics")
metric() { # metric <rendered-name>: print its value or 0
  echo "$METRICS" | awk -v m="$1" '$1 == m { print $2; found = 1 } END { if (!found) print 0 }'
}
for m in \
  'cophyd_http_request_seconds_count{endpoint="ingest"}' \
  'cophyd_http_request_seconds_count{endpoint="whatif"}' \
  'cophyd_http_request_seconds_count{endpoint="recommend"}' \
  'cophyd_span_seconds_count{span="solve"}' \
  'cophyd_span_seconds_count{span="lp.phase2"}' \
  'cophyd_whatifs_total'; do
  V=$(metric "$m")
  [ "${V%.*}" -ge 1 ] 2>/dev/null || fail "metric $m is $V after the bench run, want >= 1"
done

# Request logging: every request line carries its trace ID and the
# recommend lines a span breakdown.
grep -q 'trace_id=' "$LOG" || fail "request log has no trace_id attributes"
grep -q 'spans.solve=' "$LOG" || fail "request log has no solve span breakdown"

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM $PID
RC=0
wait $PID || RC=$?
trap - EXIT
[ "$RC" = "0" ] || fail "cophyd exited $RC on SIGTERM, want 0"
grep -q 'cophyd shutting down' "$LOG" || fail "no graceful-shutdown line in the log"

echo "cophybench smoke test PASSED"
