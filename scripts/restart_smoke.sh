#!/usr/bin/env sh
# restart_smoke.sh — the kill -9 golden experiment against a real process:
# boot `drsctl serve` with a WAL, push a client burst through the HTTP
# front door, kill -9 the process before it can sync a completion
# watermark, restart it over the same WAL directory and assert zero
# admitted loss: every ACKed record is in the recovered log (tail seq ==
# admitted), recovery replays exactly the records past the durable
# watermark, and the second life completes them all (final watermark ==
# tail seq).
#
# Usage: scripts/restart_smoke.sh [port]
set -eu

PORT="${1:-17181}"
cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

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

# Life 1: a long watermark-sync interval (10 s) guarantees the kill lands
# before the first durable sync — everything admitted is still "unacked"
# in the log, the worst case recovery must handle.
"$TMP/drsctl" -topology "$TMP/topo.json" serve \
  -tmax-ms 250 -http "127.0.0.1:$PORT" -duration 60 -interval-ms 10000 \
  -wal-dir "$TMP/wal" -slots 2 -max-machines 4 > "$TMP/serve1.out" 2>&1 &
SERVE_PID=$!

i=0
until "$TMP/ingestload" -url "http://127.0.0.1:$PORT/ingest" -clients 1 -rate 1 -duration 0.2 \
      > /dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -gt 40 ]; then
    echo "serve never came up:" && cat "$TMP/serve1.out"
    kill -9 "$SERVE_PID" 2>/dev/null || true
    exit 1
  fi
  sleep 0.25
done

"$TMP/ingestload" -url "http://127.0.0.1:$PORT/ingest" \
  -clients 2 -rate 50 -duration 3 > "$TMP/load.out"
cat "$TMP/load.out"
ADMITTED=$(awk '{print $4}' "$TMP/load.out")
if [ "$ADMITTED" -le 0 ]; then
  echo "restart-smoke FAILED: nothing admitted before the kill"
  exit 1
fi

# kill -9 mid-ingest: no drain, no final sync, no checkpoint.
kill -9 "$SERVE_PID" 2>/dev/null
wait "$SERVE_PID" 2>/dev/null || true
echo "killed -9 with $ADMITTED records ACKed"

# Life 2: restart over the same WAL directory; recovery + replay, then a
# short serve that drains the replayed backlog and syncs on shutdown.
"$TMP/drsctl" -topology "$TMP/topo.json" serve \
  -tmax-ms 250 -http "127.0.0.1:$PORT" -duration 6 -interval-ms 500 \
  -wal-dir "$TMP/wal" -slots 2 -max-machines 4 > "$TMP/serve2.out" 2>&1
echo "--- restarted serve report ---"
cat "$TMP/serve2.out"

RECOVERED_TAIL=$(sed -n 's/.*msg="wal recovered" .* tail_seq=\([0-9]*\) .*/\1/p' "$TMP/serve2.out")
RECOVERED_WM=$(sed -n 's/.*msg="wal recovered" .* watermark=\([0-9]*\) .*/\1/p' "$TMP/serve2.out")
REPLAYED=$(sed -n 's/.*msg="wal replay through the spout" unacked=\([0-9]*\).*/\1/p' "$TMP/serve2.out")
FINAL_WM=$(sed -n 's/^wal: tail seq [0-9]*, watermark \([0-9]*\),.*/\1/p' "$TMP/serve2.out")
FINAL_TAIL=$(sed -n 's/^wal: tail seq \([0-9]*\),.*/\1/p' "$TMP/serve2.out")
for v in "$RECOVERED_TAIL" "$RECOVERED_WM" "$REPLAYED" "$FINAL_WM" "$FINAL_TAIL"; do
  if [ -z "$v" ]; then
    echo "restart-smoke FAILED: could not parse the WAL lines from the serve report"
    exit 1
  fi
done

# Zero admitted loss: every counted ACK made it into the log (the
# wait-for-listener probe admits a few extra records, so >=)...
if [ "$RECOVERED_TAIL" -lt "$ADMITTED" ]; then
  echo "restart-smoke FAILED: $ADMITTED records ACKed but log tail is only $RECOVERED_TAIL"
  exit 1
fi
# ...recovery replays exactly the ones past the durable watermark...
if [ "$REPLAYED" -ne $((RECOVERED_TAIL - RECOVERED_WM)) ]; then
  echo "restart-smoke FAILED: replayed $REPLAYED, want $RECOVERED_TAIL - $RECOVERED_WM"
  exit 1
fi
# ...and the second life completes every last one (books balance).
if [ "$FINAL_WM" -ne "$FINAL_TAIL" ]; then
  echo "restart-smoke FAILED: final watermark $FINAL_WM != tail seq $FINAL_TAIL (records lost)"
  exit 1
fi
echo "restart-smoke OK: $ADMITTED ACKed, $REPLAYED replayed after kill -9, watermark converged to $FINAL_WM"
