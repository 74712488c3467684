#!/usr/bin/env sh
# worker_smoke.sh — boot `drsctl serve` with a worker registration
# endpoint, attach two real `drsctl worker` processes, push a client burst
# through the HTTP front door, and kill -9 one worker mid-surge. Asserts
# the distributed invariants against live processes: both workers join
# before traffic opens (-min-workers), the kill surfaces as a machine
# death within the heartbeat lease, the engine self-heals the dead
# worker's executors back in-process, and no admitted record is lost —
# completions cover everything admitted at the door.
#
# Usage: scripts/worker_smoke.sh [http_port] [worker_port]
set -eu

PORT="${1:-17181}"
WPORT="${2:-17182}"
cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
W1_PID=""
W2_PID=""
cleanup() {
  kill "$W1_PID" 2>/dev/null || true
  kill "$W2_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

cat > "$TMP/topo.json" <<'EOF'
{
  "operators": [
    {"name": "extract", "service_rate": 50, "external_rate": 20},
    {"name": "match", "service_rate": 50}
  ],
  "edges": [
    {"from": "extract", "to": "match", "selectivity": 1.0}
  ]
}
EOF

go build -o "$TMP/drsctl" ./cmd/drsctl
go build -o "$TMP/ingestload" ./internal/tools/ingestload

# Serve for 16 s; the ingest listeners stay shut until both workers join.
"$TMP/drsctl" -topology "$TMP/topo.json" serve \
  -tmax-ms 250 -http "127.0.0.1:$PORT" -duration 16 \
  -worker-listen "127.0.0.1:$WPORT" -min-workers 2 \
  -client-rate 40 -slots 2 -max-machines 4 > "$TMP/serve.out" 2>&1 &
SERVE_PID=$!

"$TMP/drsctl" -topology "$TMP/topo.json" worker \
  -connect "127.0.0.1:$WPORT" -name smoke-w1 > "$TMP/w1.out" 2>&1 &
W1_PID=$!
"$TMP/drsctl" -topology "$TMP/topo.json" worker \
  -connect "127.0.0.1:$WPORT" -name smoke-w2 > "$TMP/w2.out" 2>&1 &
W2_PID=$!

# Wait for the front door — it only opens once both workers registered.
i=0
until "$TMP/ingestload" -url "http://127.0.0.1:$PORT/ingest" -clients 1 -rate 1 -duration 0.2 \
      > /dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -gt 60 ]; then
    echo "serve never came up:" && cat "$TMP/serve.out" "$TMP/w1.out" "$TMP/w2.out"
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
  fi
  sleep 0.25
done

# The surge, with a hard worker kill two seconds in.
"$TMP/ingestload" -url "http://127.0.0.1:$PORT/ingest" \
  -clients 4 -rate 120 -duration 6 > "$TMP/load.out" &
LOAD_PID=$!
sleep 2
kill -9 "$W1_PID"
W1_PID=""
wait "$LOAD_PID"
cat "$TMP/load.out"

wait "$SERVE_PID"
echo "--- serve report ---"
cat "$TMP/serve.out"

JOINS=$(grep -c 'msg="worker joined"' "$TMP/serve.out" || true)
if [ "$JOINS" -lt 2 ]; then
  echo "smoke FAILED: expected 2 worker joins, saw $JOINS"
  exit 1
fi
if ! grep -q 'msg="worker died, executors heal local"' "$TMP/serve.out"; then
  echo "smoke FAILED: the kill -9 never surfaced as a worker death"
  exit 1
fi
if ! grep -q 'registered as machine' "$TMP/w1.out"; then
  echo "smoke FAILED: worker 1 never registered" && cat "$TMP/w1.out"
  exit 1
fi
ADMITTED=$(awk '{print $4}' "$TMP/load.out")
if [ "$ADMITTED" -le 0 ]; then
  echo "smoke FAILED: no records admitted through the front door"
  exit 1
fi
DOOR=$(awk -F'admitted | \\(shed' '/^ingest: offered/ {print $2}' "$TMP/serve.out")
COMPLETIONS=$(awk '/^engine: / {print $2}' "$TMP/serve.out")
if [ -z "$DOOR" ] || [ -z "$COMPLETIONS" ]; then
  echo "smoke FAILED: could not parse the serve report"
  exit 1
fi
if [ "$COMPLETIONS" -lt "$DOOR" ]; then
  echo "smoke FAILED: $DOOR admitted but only $COMPLETIONS completed — records lost in the kill"
  exit 1
fi
echo "worker-smoke OK: 2 workers joined, kill -9 healed, $DOOR admitted / $COMPLETIONS completed"
