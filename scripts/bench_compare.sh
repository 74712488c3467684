#!/usr/bin/env sh
# bench_compare.sh — the end-to-end benchmark on two checkouts of this
# repository, interleaved, judged by `benchmark/run.sh compare`.
#
# Usage: scripts/bench_compare.sh PARENT_DIR [pairs]
#   PARENT_DIR  a checkout of the commit to compare against (a git clone
#               or worktree; it builds into its own .bench_build/)
#   pairs       parent/head pairs to run (default 5); pair i uses seed i
#               and alternates which side goes first
#
# Each side of a pair is `bash benchmark/run.sh run -seed i -repeats 1` —
# every workload, untraced and traced, about 3.5 minutes — so the two
# sides' runs sit minutes, not hours, apart on a machine whose speed
# drifts. The per-pair files and their merge land in
# .bench_build/compare/ (A = parent, B = this checkout); the exit status
# is compare's: 1 on a regression beyond BENCHMARK.json's bounds or a
# higher failed share. Needs jq.
set -eu

cd "$(dirname "$0")/.."
HEAD_DIR="$(pwd)"
PARENT_DIR="$(cd "$1" && pwd)"
PAIRS="${2:-5}"
OUT="$HEAD_DIR/.bench_build/compare"
mkdir -p "$OUT"
rm -f "$OUT"/A*.json "$OUT"/B*.json

i=1
while [ "$i" -le "$PAIRS" ]; do
    if [ $((i % 2)) -eq 1 ]; then order="A B"; else order="B A"; fi
    for side in $order; do
        dir="$PARENT_DIR"
        [ "$side" = B ] && dir="$HEAD_DIR"
        echo "== pair $i of $PAIRS, side $side: $dir"
        (cd "$dir" && bash benchmark/run.sh run -seed "$i" -repeats 1 -out "$OUT/${side}_$i.json")
    done
    i=$((i + 1))
done

for side in A B; do
    jq -s '.[0] + {repeats: length, runs: (map(.runs) | add)}' "$OUT/${side}"_*.json > "$OUT/$side.json"
done
bash benchmark/run.sh compare "$OUT/A.json" "$OUT/B.json"
