#!/usr/bin/env bash
# End-to-end smoke test of the levyd daemon as a real OS process:
#
#   1. start levyd on an ephemeral port with a disk cache;
#   2. health-check it with levyc;
#   3. run an E6-style query twice — the first must be a cache miss, the
#      second a cache hit with a byte-identical body;
#   4. scrape GET /metrics and require the cache hit to be visible in the
#      Prometheus exposition;
#   5. fetch the cold query's trace by id (levyc prints `trace: <id>` on
#      stderr) and require a span tree with cache_probe and worker_exec,
#      plus the trace listing at GET /v1/traces;
#   6. SIGTERM the daemon and require a clean (0) exit;
#   7. restart it on the same --cache-dir with no memory tier and require
#      a JSON and a --wire replay to hit the disk tier, byte-identical to
#      the cold body; then SIGTERM it again.
#
# Usage: scripts/server_smoke.sh [path-to-target-dir]
#   Binaries are taken from $1/release (default: target/release); build
#   them first with `cargo build --release -p levy-served`.
set -euo pipefail
cd "$(dirname "$0")/.."

TARGET="${1:-target}/release"
LEVYD="$TARGET/levyd"
LEVYC="$TARGET/levyc"
[ -x "$LEVYD" ] && [ -x "$LEVYC" ] || {
  echo "error: $LEVYD / $LEVYC not built (run: cargo build --release -p levy-served)" >&2
  exit 2
}

WORKDIR="$(mktemp -d "${TMPDIR:-/tmp}/levy-server-smoke.XXXXXX")"
LEVYD_PID=""
cleanup() {
  [ -n "$LEVYD_PID" ] && kill "$LEVYD_PID" 2>/dev/null || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

# Starts levyd on an ephemeral port over the shared cache directory
# (extra flags pass through) and parses the advertised address.
start_levyd() {
  "$LEVYD" --addr 127.0.0.1:0 --workers 2 --cache-dir "$WORKDIR/cache" "$@" \
    >"$WORKDIR/levyd.out" 2>"$WORKDIR/levyd.log" &
  LEVYD_PID=$!
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^levyd listening on //p' "$WORKDIR/levyd.out")"
    [ -n "$ADDR" ] && break
    kill -0 "$LEVYD_PID" 2>/dev/null || { echo "levyd died on startup:" >&2; cat "$WORKDIR/levyd.log" >&2; exit 1; }
    sleep 0.1
  done
  [ -n "$ADDR" ] || { echo "levyd never advertised an address" >&2; exit 1; }
  echo "levyd up at $ADDR (pid $LEVYD_PID)"
}

# SIGTERMs levyd and requires a clean (0) exit status.
stop_levyd() {
  kill -TERM "$LEVYD_PID"
  STATUS=0
  wait "$LEVYD_PID" || STATUS=$?
  LEVYD_PID=""
  [ "$STATUS" -eq 0 ] || {
    echo "levyd exited with status $STATUS on SIGTERM:" >&2
    cat "$WORKDIR/levyd.log" >&2
    exit 1
  }
}

# 1. Start on an ephemeral port.
start_levyd

# 2. Health check.
"$LEVYC" --addr "$ADDR" health >/dev/null
echo "health: ok"

QUERY='{"kind":"parallel","strategy":"optimal","k":8,"ell":16,"budget":4000,"trials":200,"seed":42}'

# 3. Cold query, then a replay that must hit the cache byte-for-byte.
"$LEVYC" --addr "$ADDR" query "$QUERY" >"$WORKDIR/cold.json" 2>"$WORKDIR/cold.hdr"
grep -q '^cache: miss' "$WORKDIR/cold.hdr" || {
  echo "expected first query to be a cache miss:" >&2; cat "$WORKDIR/cold.hdr" >&2; exit 1
}
"$LEVYC" --addr "$ADDR" query "$QUERY" >"$WORKDIR/cached.json" 2>"$WORKDIR/cached.hdr"
grep -q '^cache: hit' "$WORKDIR/cached.hdr" || {
  echo "expected second query to be a cache hit:" >&2; cat "$WORKDIR/cached.hdr" >&2; exit 1
}
cmp -s "$WORKDIR/cold.json" "$WORKDIR/cached.json" || {
  echo "cache replay was not byte-identical" >&2
  diff "$WORKDIR/cold.json" "$WORKDIR/cached.json" >&2 || true
  exit 1
}
echo "query: cold miss + cached hit, bodies byte-identical"

# 3b. Binary negotiation: `--wire` fetches the levy-wire representation
#     and decodes it client-side; the decoded JSON must be byte-identical
#     to the JSON-negotiated body. `--stream` replays the same query as a
#     chunked stream whose terminal frame carries the same bytes again.
"$LEVYC" --addr "$ADDR" query --wire "$QUERY" >"$WORKDIR/wire.json" 2>"$WORKDIR/wire.hdr"
grep -q '^wire: .* bytes' "$WORKDIR/wire.hdr" || {
  echo "levyc --wire did not report a binary body:" >&2; cat "$WORKDIR/wire.hdr" >&2; exit 1
}
cmp -s "$WORKDIR/cold.json" "$WORKDIR/wire.json" || {
  echo "wire-negotiated body did not transcode to the JSON bytes" >&2
  diff "$WORKDIR/cold.json" "$WORKDIR/wire.json" >&2 || true
  exit 1
}
"$LEVYC" --addr "$ADDR" query --stream "$QUERY" >"$WORKDIR/stream.json" 2>"$WORKDIR/stream.hdr"
cmp -s "$WORKDIR/cold.json" "$WORKDIR/stream.json" || {
  echo "streamed final body was not byte-identical to the buffered one" >&2
  diff "$WORKDIR/cold.json" "$WORKDIR/stream.json" >&2 || true
  exit 1
}
echo "wire: binary body transcodes byte-identically; stream replays the same bytes"

# 4. The hit must show up in the Prometheus exposition.
"$LEVYC" --addr "$ADDR" metrics >"$WORKDIR/metrics.txt" 2>/dev/null
CACHE_HITS="$(awk '$1 == "levy_served_cache_hits_total" { print $2 }' "$WORKDIR/metrics.txt")"
[ -n "$CACHE_HITS" ] && [ "$CACHE_HITS" -ge 1 ] || {
  echo "expected levy_served_cache_hits_total >= 1 in /metrics, got '${CACHE_HITS:-absent}':" >&2
  grep '^levy_served_cache' "$WORKDIR/metrics.txt" >&2 || cat "$WORKDIR/metrics.txt" >&2
  exit 1
}
echo "metrics: levy_served_cache_hits_total=$CACHE_HITS"
WIRE_REQS="$(awk '$1 == "levy_served_wire_requests_total" { print $2 }' "$WORKDIR/metrics.txt")"
[ -n "$WIRE_REQS" ] && [ "$WIRE_REQS" -ge 1 ] || {
  echo "expected levy_served_wire_requests_total >= 1 in /metrics, got '${WIRE_REQS:-absent}':" >&2
  grep '^levy_served_wire' "$WORKDIR/metrics.txt" >&2 || cat "$WORKDIR/metrics.txt" >&2
  exit 1
}
echo "metrics: levy_served_wire_requests_total=$WIRE_REQS"

# 5. The cold query's trace must be queryable by id and form a span tree
#    that reached a worker. The root span finalizes just after the
#    response bytes hit the wire, so poll briefly.
TRACE_ID="$(sed -n 's/^trace: //p' "$WORKDIR/cold.hdr")"
[ -n "$TRACE_ID" ] || {
  echo "levyc query did not announce a trace id:" >&2; cat "$WORKDIR/cold.hdr" >&2; exit 1
}
TRACE_OK=""
for _ in $(seq 1 50); do
  if "$LEVYC" --addr "$ADDR" trace "$TRACE_ID" >"$WORKDIR/trace.txt" 2>/dev/null; then
    TRACE_OK=1
    break
  fi
  sleep 0.1
done
[ -n "$TRACE_OK" ] || { echo "trace $TRACE_ID never appeared at /v1/traces/$TRACE_ID" >&2; exit 1; }
for SPAN in cache_probe queue_wait worker_exec simulate response_encode; do
  grep -q "$SPAN" "$WORKDIR/trace.txt" || {
    echo "trace $TRACE_ID is missing the $SPAN span:" >&2; cat "$WORKDIR/trace.txt" >&2; exit 1
  }
done
"$LEVYC" --addr "$ADDR" traces >"$WORKDIR/traces.json" 2>/dev/null
grep -q "$TRACE_ID" "$WORKDIR/traces.json" || {
  echo "trace $TRACE_ID missing from the /v1/traces listing" >&2; exit 1
}
echo "trace: $TRACE_ID has a full span tree and appears in the listing"

# 6. Graceful SIGTERM shutdown with a clean exit status.
stop_levyd
echo "shutdown: clean exit on SIGTERM"

# 7. Restart on the same cache directory. With no memory tier every
#    replay reads the stored .lw entry, so both representations must
#    report the disk tier and reproduce the cold bytes exactly.
start_levyd --mem-capacity 0
for MODE in json wire; do
  FLAGS=()
  [ "$MODE" = wire ] && FLAGS=(--wire)
  "$LEVYC" --addr "$ADDR" query ${FLAGS[@]+"${FLAGS[@]}"} "$QUERY" \
    >"$WORKDIR/restart-$MODE.json" 2>"$WORKDIR/restart-$MODE.hdr"
  grep -q '^cache: hit (tier: disk)' "$WORKDIR/restart-$MODE.hdr" || {
    echo "expected the $MODE replay after a restart to hit the disk tier:" >&2
    cat "$WORKDIR/restart-$MODE.hdr" >&2; exit 1
  }
  cmp -s "$WORKDIR/cold.json" "$WORKDIR/restart-$MODE.json" || {
    echo "$MODE replay from the disk tier was not byte-identical to the cold body" >&2
    diff "$WORKDIR/cold.json" "$WORKDIR/restart-$MODE.json" >&2 || true
    exit 1
  }
done
stop_levyd
echo "restart: JSON and wire replays hit the disk tier, bodies byte-identical"
echo "server smoke: PASS"
