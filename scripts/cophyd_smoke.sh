#!/usr/bin/env bash
# Boots cophyd on a random port, ingests a small TPC-H-style stream,
# and asserts /whatif and /recommend responses. Usage:
#
#   scripts/cophyd_smoke.sh [path-to-cophyd-binary]
#
# Without an argument the script builds the binary itself.
set -euo pipefail

cd "$(dirname "$0")/.."

BIN="${1:-}"
if [ -z "$BIN" ]; then
  BIN=$(mktemp -d)/cophyd
  go build -o "$BIN" ./cmd/cophyd
fi

LOG=$(mktemp)
"$BIN" -addr 127.0.0.1:0 -scale 0.05 -gap 0.05 >"$LOG" 2>&1 &
PID=$!
trap 'kill $PID 2>/dev/null || true' EXIT

# Wait for the listening line and extract the port.
ADDR=""
for _ in $(seq 1 50); do
  ADDR=$(sed -n 's/^cophyd listening on //p' "$LOG" | head -1)
  [ -n "$ADDR" ] && break
  sleep 0.1
done
if [ -z "$ADDR" ]; then
  echo "cophyd did not start; log:" >&2
  cat "$LOG" >&2
  exit 1
fi
BASE="http://$ADDR"
echo "daemon at $BASE"

fail() {
  echo "FAIL: $1" >&2
  echo "--- response: $2" >&2
  exit 1
}

curl -fsS "$BASE/healthz" >/dev/null

# Ingest a small TPC-H-style stream.
INGEST=$(curl -fsS -X POST "$BASE/ingest" -d '{
  "sql": "SELECT l_extendedprice FROM lineitem WHERE l_shipdate BETWEEN :0.2 AND :0.3 WEIGHT 5; SELECT o_totalprice FROM orders WHERE o_orderdate < :0.4 WEIGHT 3; SELECT c_name FROM customer WHERE c_mktsegment = :0.3; SELECT o_orderdate, SUM(l_extendedprice) FROM orders, lineitem WHERE l_orderkey = o_orderkey AND o_orderdate < :0.5 GROUP BY o_orderdate WEIGHT 2; UPDATE lineitem SET l_quantity = :0.5 WHERE l_orderkey < :0.1;"
}')
echo "$INGEST" | grep -q '"accepted": 5' || fail "/ingest should accept 5 statements" "$INGEST"

# What-if: a covering index must not cost more than the baseline.
WHATIF=$(curl -fsS -X POST "$BASE/whatif" -d '{
  "sql": "SELECT l_extendedprice FROM lineitem WHERE l_shipdate BETWEEN :0.2 AND :0.3;",
  "indexes": [{"table": "lineitem", "key": ["l_shipdate"], "include": ["l_extendedprice"]}]
}')
echo "$WHATIF" | grep -q '"cost"' || fail "/whatif should return a cost" "$WHATIF"
python3 - "$WHATIF" <<'EOF'
import json, sys
r = json.loads(sys.argv[1])
assert r["cost"] > 0, r
assert r["cost"] <= r["base_cost"], r
assert r["improvement"] > 0, r
EOF

# Recommend: a feasible, budget-respecting index set.
REC=$(curl -fsS -X POST "$BASE/recommend" -d '{"budget_fraction": 0.5}')
python3 - "$REC" <<'EOF'
import json, sys
r = json.loads(sys.argv[1])
assert not r.get("infeasible"), r
assert len(r["indexes"]) > 0, r
assert r["est_cost"] > 0 and r["gap"] >= 0, r
assert r["warm"] is False, r
EOF

# A second recommend after a small delta must be warm.
curl -fsS -X POST "$BASE/ingest" -d '{
  "sql": "SELECT o_orderpriority, COUNT(*) FROM orders WHERE o_orderdate BETWEEN :0.1 AND :0.2 GROUP BY o_orderpriority WEIGHT 4;"
}' >/dev/null
REC2=$(curl -fsS -X POST "$BASE/recommend" -d '{"budget_fraction": 0.5}')
python3 - "$REC2" <<'EOF'
import json, sys
r = json.loads(sys.argv[1])
assert r["warm"] is True, r
assert not r.get("infeasible"), r
EOF

STATS=$(curl -fsS "$BASE/stats")
echo "$STATS" | grep -q '"recommends": 2' || fail "stats should count 2 recommends" "$STATS"

# /metrics: the Prometheus exposition must agree with /stats (the
# counters share one registry) and carry the per-endpoint and per-span
# histograms the requests above fed.
CT=$(curl -fsS -o /dev/null -w '%{content_type}' "$BASE/metrics")
case "$CT" in text/plain\;*version=0.0.4*) ;; *) fail "/metrics content type is $CT, want the Prometheus text format" "";; esac
METRICS=$(curl -fsS "$BASE/metrics")
echo "$METRICS" | grep -q '^cophyd_recommends_total 2$' || fail "/metrics should count 2 recommends like /stats" "$METRICS"
echo "$METRICS" | grep -q 'cophyd_http_request_seconds_count{endpoint="recommend"} 2' || fail "/metrics is missing the recommend latency histogram" "$METRICS"
echo "$METRICS" | grep -q 'cophyd_span_seconds_count{span="solve"}' || fail "/metrics is missing the solve span histogram" "$METRICS"
echo "$METRICS" | grep -q 'cophyd_health{state="healthy"} 1' || fail "/metrics should report the healthy state gauge" "$METRICS"
# The per-status-code request counter is the error and shed-rate
# input a burn-rate alerting rule reads.
echo "$METRICS" | grep -q 'cophyd_http_requests_total{code="200",endpoint="recommend"} 2' || fail "/metrics is missing the per-code recommend request counter" "$METRICS"

# /debug/traces (unguarded on this tokenless daemon): the flight
# recorder must have kept the slowest recommend with a span breakdown.
TRACES=$(curl -fsS "$BASE/debug/traces")
python3 - "$TRACES" <<'EOF'
import json, sys
r = json.loads(sys.argv[1])
recs = r["slowest"]["recommend"]
assert recs, r["slowest"].keys()
top = recs[0]
assert top["trace_id"] and top["status"] == 200, top
assert top["duration_millis"] > 0, top
assert top["spans"], top
assert any(s["name"] == "solve" for s in top["spans"]), top["spans"]
# Entries are sorted slowest-first.
durs = [e["duration_millis"] for e in recs]
assert durs == sorted(durs, reverse=True), durs
EOF

kill $PID 2>/dev/null || true

# --- Durability phase: kill -9 mid-run, restart from -data-dir, and
# require the recovered daemon to match the pre-kill state and solve
# its first recommendation warm.

DATA=$(mktemp -d)
LOG2=$(mktemp)
TOKEN=smoke-secret
"$BIN" -addr 127.0.0.1:0 -scale 0.05 -gap 0.05 -data-dir "$DATA" -auth-token "$TOKEN" >"$LOG2" 2>&1 &
PID2=$!
trap 'kill -9 $PID $PID2 2>/dev/null || true' EXIT

ADDR2=""
for _ in $(seq 1 50); do
  ADDR2=$(sed -n 's/^cophyd listening on //p' "$LOG2" | head -1)
  [ -n "$ADDR2" ] && break
  sleep 0.1
done
[ -n "$ADDR2" ] || { echo "durable cophyd did not start" >&2; cat "$LOG2" >&2; exit 1; }
BASE2="http://$ADDR2"
AUTH="Authorization: Bearer $TOKEN"

# Mutations demand the token; reads do not.
NOAUTH=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE2/ingest" -d '{"sql": "SELECT l_quantity FROM lineitem;"}')
[ "$NOAUTH" = "401" ] || fail "tokenless ingest should be 401, got $NOAUTH" ""
curl -fsS "$BASE2/stats" >/dev/null

curl -fsS -H "$AUTH" -X POST "$BASE2/ingest" -d '{
  "sql": "SELECT l_extendedprice FROM lineitem WHERE l_shipdate BETWEEN :0.2 AND :0.3 WEIGHT 5; SELECT o_totalprice FROM orders WHERE o_orderdate < :0.4 WEIGHT 3; SELECT c_name FROM customer WHERE c_mktsegment = :0.3;"
}' >/dev/null
curl -fsS -H "$AUTH" -X POST "$BASE2/recommend" -d '{"budget_fraction": 0.5}' >/dev/null
PRE=$(curl -fsS "$BASE2/stats")
PRE_LIVE=$(echo "$PRE" | python3 -c 'import json,sys; print(json.load(sys.stdin)["live_statements"])')
PRE_WEIGHT=$(echo "$PRE" | python3 -c 'import json,sys; print(json.load(sys.stdin)["live_weight"])')

# Snapshot so the restart below loads state from a snapshot, not only
# from the WAL. Template plans are not in it: the restart derives them.
curl -fsS -H "$AUTH" -X POST "$BASE2/snapshot" -d '' >/dev/null

kill -9 $PID2
wait $PID2 2>/dev/null || true

# The restarted daemon also hosts the overload phase: a queue of one
# makes shedding observable with a small burst, and the tightened solver
# caps (-gap/-root-iters/-max-nodes) let a tight-budget /recommend run
# tens of milliseconds instead of sub-millisecond, so concurrent
# handlers actually overlap on a single-CPU box.
"$BIN" -addr 127.0.0.1:0 -scale 0.05 -gap 0.0005 -root-iters 20000 -max-nodes 256 \
  -data-dir "$DATA" -auth-token "$TOKEN" \
  -max-queue 1 -queue-timeout 2s >"$LOG2" 2>&1 &
PID2=$!
ADDR3=""
for _ in $(seq 1 50); do
  ADDR3=$(sed -n 's/^cophyd listening on //p' "$LOG2" | head -1)
  [ -n "$ADDR3" ] && break
  sleep 0.1
done
[ -n "$ADDR3" ] || { echo "restarted cophyd did not come up" >&2; cat "$LOG2" >&2; exit 1; }
grep -q "cophyd recovered" "$LOG2" || fail "restart printed no recovery line" "$(cat "$LOG2")"
BASE3="http://$ADDR3"

POST=$(curl -fsS "$BASE3/stats")
python3 - "$PRE_LIVE" "$PRE_WEIGHT" "$POST" <<'EOF'
import json, sys
live, weight, stats = int(sys.argv[1]), float(sys.argv[2]), json.loads(sys.argv[3])
assert stats["live_statements"] == live, (stats["live_statements"], live)
assert stats["live_weight"] == weight, (stats["live_weight"], weight)
assert stats["recovery"]["warm_session"] is True, stats["recovery"]
EOF

# The background warm-up derives the recovered statements' template
# plans: wait until it ends, then require resident shapes and the
# misses that derived them. The /recommend below must solve warm.
WARMING=True
for _ in $(seq 1 50); do
  WARMING=$(curl -fsS "$BASE3/stats" | python3 -c 'import json,sys; print(json.load(sys.stdin)["warming"])')
  [ "$WARMING" = "False" ] && break
  sleep 0.1
done
[ "$WARMING" = "False" ] || fail "recovery warm-up never finished" ""
python3 - "$(curl -fsS "$BASE3/stats")" <<'EOF'
import json, sys
s = json.loads(sys.argv[1])
assert s["plan_shapes"] > 0, s
assert s["plan_cache_misses"] > 0, s
EOF

REC3=$(curl -fsS -H "$AUTH" -X POST "$BASE3/recommend" -d '{"budget_fraction": 0.5}')
python3 - "$REC3" <<'EOF'
import json, sys
r = json.loads(sys.argv[1])
assert r["warm"] is True, r
assert not r.get("infeasible"), r
EOF

# With a token set the flight recorder is guarded: traces expose SQL
# timings and trace IDs, so no bearer token means no dump.
TRACE_CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE3/debug/traces")
[ "$TRACE_CODE" = "401" ] || fail "tokenless /debug/traces should be 401, got $TRACE_CODE" ""
curl -fsS -H "$AUTH" "$BASE3/debug/traces" | python3 -c '
import json, sys
r = json.load(sys.stdin)
assert r["slowest"]["recommend"][0]["spans"], r["slowest"]["recommend"][0]
'

# --- Overload phase: bursts of simultaneous /recommend against the
# queue-of-one daemon. An identical request that reaches the session
# after the first one solved gets the remembered answer (counted in
# coalesced_requests), the rest shed; distinct requests beyond the
# queue must shed as 429 with a Retry-After header and the unified
# JSON error body.
#
# Two things make overlap reliable on a single-CPU box: the burst is
# fired over pre-connected raw sockets (all requests land within ~1 ms,
# where spawning curls staggers arrivals by tens of ms), and the burst
# budgets are tight (~0.005-0.02), which drives the Lagrangian search
# through thousands of iterations (~40 ms per solve) — long enough for
# the Go scheduler to preempt and interleave the handlers. Bursts are
# still timing dependent, so each is retried a few times.

# Widen the live workload first so tight budgets have a real knapsack
# to grind on.
WIDE=$(python3 - <<'EOF'
qs = []
for i in range(40):
    lo = (i % 30) / 40
    qs.append(f"SELECT l_extendedprice, l_discount FROM lineitem WHERE l_shipdate BETWEEN :{lo:.3f} AND :{lo+0.15:.3f} AND l_quantity < :{0.2+lo/2:.3f} WEIGHT {1+i%4}")
    qs.append(f"SELECT o_totalprice, o_orderdate FROM orders WHERE o_orderdate < :{0.05+lo:.3f} AND o_totalprice > :{lo:.3f} WEIGHT {1+i%3}")
    qs.append(f"SELECT c_name, c_acctbal FROM customer WHERE c_acctbal BETWEEN :{lo:.3f} AND :{lo+0.1:.3f} WEIGHT {1+i%2}")
print("; ".join(qs) + ";")
EOF
)
curl -fsS -H "$AUTH" -X POST "$BASE3/ingest" -d "{\"sql\": \"$WIDE\"}" >/dev/null

burst() { # burst <outprefix> <budgets...>: simultaneous raw-socket recommends, capturing headers/body/code per caller
  local out=$1; shift
  python3 - "$ADDR3" "$TOKEN" "$out" "$@" <<'EOF'
import json, socket, sys
host, port = sys.argv[1].rsplit(":", 1)
token, out, budgets = sys.argv[2], sys.argv[3], [float(b) for b in sys.argv[4:]]
# Connect everything first, then fire: arrivals land within ~1 ms.
socks = [socket.create_connection((host, int(port))) for _ in budgets]
for s, b in zip(socks, budgets):
    payload = json.dumps({"budget_fraction": b}).encode()
    s.sendall((f"POST /recommend HTTP/1.0\r\nHost: cophyd\r\n"
               f"Authorization: Bearer {token}\r\n"
               f"Content-Type: application/json\r\n"
               f"Content-Length: {len(payload)}\r\n\r\n").encode() + payload)
for i, s in enumerate(socks):
    buf = b""
    while True:
        chunk = s.recv(65536)
        if not chunk:
            break
        buf += chunk
    s.close()
    head, _, body = buf.partition(b"\r\n\r\n")
    open(f"{out}.c{i}", "w").write(head.split(b" ", 2)[1].decode())
    open(f"{out}.h{i}", "wb").write(head)
    open(f"{out}.b{i}", "wb").write(body)
EOF
}

TMPB=$(mktemp -d)
COALESCED=0
for _ in 1 2 3 4 5; do
  burst "$TMPB/same" 0.01 0.01 0.01 0.01 0.01 0.01 0.01 0.01
  COALESCED=$(curl -fsS "$BASE3/stats" | python3 -c 'import json,sys; print(json.load(sys.stdin)["coalesced_requests"])')
  [ "$COALESCED" -ge 1 ] && break
done
[ "$COALESCED" -ge 1 ] || fail "identical burst never coalesced (coalesced_requests=$COALESCED)" ""
for i in 0 1 2 3 4 5 6 7; do
  C=$(cat "$TMPB/same.c$i")
  [ "$C" = "200" ] || [ "$C" = "429" ] || fail "identical burst caller $i got $C, want 200 or 429" "$(cat "$TMPB/same.b$i")"
done

SHED=""
for _ in 1 2 3 4 5; do
  burst "$TMPB/dist" 0.004 0.006 0.008 0.010 0.012 0.014 0.016 0.018
  for i in 0 1 2 3 4 5 6 7; do
    C=$(cat "$TMPB/dist.c$i")
    [ "$C" = "200" ] || [ "$C" = "429" ] || fail "distinct burst caller $i got $C, want 200 or 429" "$(cat "$TMPB/dist.b$i")"
    if [ "$C" = "429" ]; then SHED=$i; fi
  done
  [ -n "$SHED" ] && break
done
[ -n "$SHED" ] || fail "distinct burst over a queue of 1 never shed a 429" ""
grep -qi '^retry-after:' "$TMPB/dist.h$SHED" || fail "429 carried no Retry-After header" "$(cat "$TMPB/dist.h$SHED")"
python3 - "$(cat "$TMPB/dist.b$SHED")" <<'EOF'
import json, sys
r = json.loads(sys.argv[1])
assert r["status"] == 429, r
assert r["retry_after_seconds"] >= 1, r
assert "overloaded" in r["error"], r
EOF
SHEDS=$(curl -fsS "$BASE3/stats" | python3 -c 'import json,sys; print(json.load(sys.stdin)["shed_requests"])')
[ "$SHEDS" -ge 1 ] || fail "shed_requests stayed zero after a shed burst" ""

# --- Degraded phase: make the data directory unwritable, force a
# durable operation, and require the daemon to flip to degraded
# (healthz 503, mutations refused naming the cause), then restore the
# directory and require automatic recovery. Root bypasses directory
# permissions, so the phase self-checks whether the damage took.

chmod a-w "$DATA"
SNAP_CODE=$(curl -s -o "$TMPB/snap" -w '%{http_code}' -H "$AUTH" -X POST "$BASE3/snapshot" -d '')
if [ "$SNAP_CODE" = "200" ]; then
  chmod u+w "$DATA"
  echo "NOTE: skipping degraded phase (directory permissions not enforced for this user, likely root)"
else
  HEALTH=""
  for _ in $(seq 1 50); do
    HEALTH=$(curl -s "$BASE3/healthz" | python3 -c 'import json,sys; print(json.load(sys.stdin)["status"])')
    [ "$HEALTH" = "degraded" ] && break
    sleep 0.1
  done
  [ "$HEALTH" = "degraded" ] || fail "healthz never reported degraded after disk failure (got $HEALTH)" ""
  ING_CODE=$(curl -s -o "$TMPB/ing" -w '%{http_code}' -H "$AUTH" -X POST "$BASE3/ingest" \
    -d '{"sql": "SELECT l_quantity FROM lineitem WHERE l_quantity > :0.5;"}')
  [ "$ING_CODE" = "503" ] || fail "degraded ingest answered $ING_CODE, want 503" "$(cat "$TMPB/ing")"
  grep -q 'degraded' "$TMPB/ing" || fail "degraded refusal does not name the state" "$(cat "$TMPB/ing")"

  chmod u+w "$DATA"
  HEALTH=""
  for _ in $(seq 1 100); do
    HEALTH=$(curl -s "$BASE3/healthz" | python3 -c 'import json,sys; print(json.load(sys.stdin)["status"])')
    [ "$HEALTH" = "healthy" ] && break
    sleep 0.2
  done
  [ "$HEALTH" = "healthy" ] || fail "daemon never recovered after the directory was restored (got $HEALTH)" ""
  curl -fsS -H "$AUTH" -X POST "$BASE3/ingest" \
    -d '{"sql": "SELECT l_quantity FROM lineitem WHERE l_quantity > :0.5;"}' >/dev/null
fi

echo "cophyd smoke test PASSED (kill -9 + warm restart, overload shedding/coalescing, degraded-mode recovery, /metrics + flight recorder)"
