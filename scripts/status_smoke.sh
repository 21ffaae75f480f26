#!/usr/bin/env bash
# Telemetry smoke test: run a small parallel Fig-7 sweep with progress
# heartbeats and the HTTP status server on an ephemeral port, then hit
# /status, /runnerstats, /debug/vars and /debug/pprof/ while the sweep
# is live. Exercises the full observability surface end to end the way
# an operator would: discover the port from the "status: listening on"
# stderr line, poll, and validate JSON.
set -euo pipefail
cd "$(dirname "$0")/.."

STDERR=$(mktemp)
STATS=$(mktemp)
trap 'rm -f "$STDERR" "$STATS"; kill $PID 2>/dev/null || true' EXIT

go run ./cmd/experiments -fig7 -scale 1 -seeds 1 -j 2 \
    -progress 500ms -status-addr 127.0.0.1:0 -runnerstats "$STATS" \
    2>"$STDERR" >/dev/null &
PID=$!

# The status server binds before the sweep starts; wait for its
# announcement (the process may also exit early on failure).
ADDR=""
for _ in $(seq 1 120); do
    ADDR=$(sed -n 's/^status: listening on //p' "$STDERR" | head -1)
    [ -n "$ADDR" ] && break
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.25
done
if [ -z "$ADDR" ]; then
    echo "status_smoke: no 'status: listening on' line" >&2
    cat "$STDERR" >&2
    exit 1
fi
echo "status_smoke: server at $ADDR"

curl -fsS "http://$ADDR/status" | python3 -c '
import json, sys
s = json.load(sys.stdin)
assert s["jobs_total"] > 0, s
assert s["workers"] == 2, s
print("status_smoke: /status ok:", s["jobs_done"], "/", s["jobs_total"], "cells")
'
curl -fsS "http://$ADDR/runnerstats" | python3 -c '
import json, sys
r = json.load(sys.stdin)
assert r["schema"] == "tssim-runnerstats/v1", r["schema"]
assert "worker_busy_fraction" in r["diagnosis"], r["diagnosis"].keys()
print("status_smoke: /runnerstats ok")
'
curl -fsS "http://$ADDR/debug/vars" | python3 -c '
import json, sys
v = json.load(sys.stdin)
assert "memstats" in v, "no runtime memstats"
print("status_smoke: /debug/vars ok")
'
curl -fsS -o /dev/null "http://$ADDR/debug/pprof/"
echo "status_smoke: /debug/pprof/ ok"

wait "$PID"

# After shutdown: heartbeats were emitted and the runnerstats file is a
# valid report over the whole sweep.
grep -q '^progress: ' "$STDERR" || {
    echo "status_smoke: no progress heartbeats on stderr" >&2
    exit 1
}
python3 -c '
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema"] == "tssim-runnerstats/v1", r["schema"]
assert r["jobs_done"] == r["jobs_total"] > 0, (r["jobs_done"], r["jobs_total"])
assert r["jobs_failed"] == 0, r["jobs_failed"]
d = r["diagnosis"]
print("status_smoke: runnerstats ok — busy %.2f, gc-pause %.4f, construct %.3f" %
      (d["worker_busy_fraction"], d["gc_pause_share"], d["construct_share"]))
' "$STATS"
echo "status_smoke: ok"
