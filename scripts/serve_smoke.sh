#!/usr/bin/env bash
# Boot-and-hammer smoke test for tnpu-serve.
#
# Builds the server binary, boots it against a fresh disk cache, and
# drives it with the in-repo load-test client
# (TestLoadAgainstExternalServer): hundreds of concurrent requests, zero
# 5xx tolerated, cross-request cache hits required. Then the server is
# restarted over the same cache directory and hammered again with
# TNPU_SERVE_EXPECT_WARM=1, proving the disk cache survives a process
# restart and the warm process computes nothing.
#
# A third leg then wipes only the result-cache entries ($cache/*.memo;
# the persistent memo store lives in a separate -memodir and is kept) and
# restarts: the server must regenerate every artifact, but from whole-run
# cell results rather than simulation. /stats must show memo-store hits
# and no saves (no cell simulated), and the leg's regeneration time — the
# harness's summed cell time on /stats, which leaves out the HTTP serving
# and `go test` start-up both legs pay — must beat the cold leg's.
#
# Usage:
#   scripts/serve_smoke.sh            # default 300 requests per leg
#   SERVE_SMOKE_LOAD=2000 scripts/serve_smoke.sh
#
# Set SERVE_SMOKE_OUTDIR to keep the server logs in that directory (CI
# uploads them as an artifact on failure); by default everything lands in
# a temp directory removed at exit.
set -euo pipefail
cd "$(dirname "$0")/.."

load="${SERVE_SMOKE_LOAD:-300}"
work="$(mktemp -d)"
bin="$work/tnpu-serve"
cache="$work/cache"
if [ -n "${SERVE_SMOKE_OUTDIR:-}" ]; then
  mkdir -p "$SERVE_SMOKE_OUTDIR"
  logdir="$SERVE_SMOKE_OUTDIR"
else
  logdir="$work"
fi
server_pid=""

cleanup() {
  if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
    kill "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT

go build -o "$bin" ./cmd/tnpu-serve

# boot starts the server on an ephemeral port and extracts the bound
# address from its boot line:
#   tnpu-serve: listening on http://127.0.0.1:NNNNN (cache DIR)
# Sets $server_pid and $server_url (no subshell — the pid must survive
# into the cleanup trap).
server_url=""
boot() {
  local log="$1"
  # The memo store lives under the log directory so a CI failure uploads
  # its contents alongside the server logs.
  "$bin" -addr 127.0.0.1:0 -cache "$cache" -memodir "$logdir/memo" -models df >"$log" 2>&1 &
  server_pid=$!
  server_url=""
  for _ in $(seq 1 100); do
    server_url="$(sed -n 's/^tnpu-serve: listening on \(http:\/\/[^ ]*\).*/\1/p' "$log")"
    [ -n "$server_url" ] && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
      echo "serve_smoke: server died during boot:" >&2
      cat "$log" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [ -z "$server_url" ]; then
    echo "serve_smoke: no boot line after 10s:" >&2
    cat "$log" >&2
    exit 1
  fi
}

stop() {
  kill "$server_pid"
  wait "$server_pid" 2>/dev/null || true
  server_pid=""
}

now_ms() { date +%s%3N; }

echo "== cold leg: $load requests against a fresh cache =="
boot "$logdir/cold.log"
cold_start="$(now_ms)"
TNPU_SERVE_URL="$server_url" TNPU_SERVE_LOAD="$load" \
  go test ./internal/serve -run TestLoadAgainstExternalServer -count=1 -v
cold_ms="$(( $(now_ms) - cold_start ))"
cold_stats="$(curl -fsS "$server_url/stats")"
stop

echo "== warm leg: $load requests after a restart, zero computes allowed =="
boot "$logdir/warm.log"
TNPU_SERVE_URL="$server_url" TNPU_SERVE_LOAD="$load" TNPU_SERVE_EXPECT_WARM=1 \
  go test ./internal/serve -run TestLoadAgainstExternalServer -count=1 -v
stop

echo "== memo-warm leg: result cache wiped, memo store intact =="
rm -f "$cache"/*.memo
boot "$logdir/memowarm.log"
memowarm_start="$(now_ms)"
TNPU_SERVE_URL="$server_url" TNPU_SERVE_LOAD="$load" \
  go test ./internal/serve -run TestLoadAgainstExternalServer -count=1 -v
memowarm_ms="$(( $(now_ms) - memowarm_start ))"
stats="$(curl -fsS "$server_url/stats")"
stop

# stat_field JSON OBJECT FIELD prints one integer field of a /stats object.
stat_field() { printf '%s' "$1" | sed -n "s/.*\"$2\":{[^}]*\"$3\":\([0-9]*\).*/\1/p"; }
cold_cells_ms="$(stat_field "$cold_stats" harness simulate_wall_ms)"
memowarm_cells_ms="$(stat_field "$stats" harness simulate_wall_ms)"
echo "cold leg ${cold_ms}ms (${cold_cells_ms}ms of cell work), memo-warm leg ${memowarm_ms}ms (${memowarm_cells_ms}ms of cell work)"
if [ -z "$cold_cells_ms" ] || [ -z "$memowarm_cells_ms" ] || [ "$memowarm_cells_ms" -ge "$cold_cells_ms" ]; then
  echo "serve_smoke: memo-warm regeneration (${memowarm_cells_ms}ms of cell work) did not beat the cold leg (${cold_cells_ms}ms)" >&2
  exit 1
fi
memo_hits="$(stat_field "$stats" memo_store hits)"
if [ -z "$memo_hits" ] || [ "$memo_hits" -eq 0 ]; then
  echo "serve_smoke: memo-warm leg reported no memo-store hits; /stats was:" >&2
  printf '%s\n' "$stats" >&2
  exit 1
fi
memo_saves="$(stat_field "$stats" memo_store saves)"
if [ "$memo_saves" != 0 ]; then
  echo "serve_smoke: memo-warm leg simulated and saved ${memo_saves:-?} cells; /stats was:" >&2
  printf '%s\n' "$stats" >&2
  exit 1
fi
echo "serve_smoke: all three legs clean (memo store served $memo_hits hits)"
