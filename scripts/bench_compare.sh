#!/usr/bin/env sh
# bench_compare.sh — the end-to-end benchmark on two checkouts of this
# repository, interleaved.
#
# Usage: scripts/bench_compare.sh PARENT_DIR [pairs] [workload]
#   PARENT_DIR  a checkout of the commit to compare against (a git clone
#               or worktree; it builds into its own .bench_build/)
#   pairs       parent/head pairs to run (default 5); pair i uses seed i
#               and alternates which side goes first
#   workload    one BENCHMARK.json workload (default: all of them)
#
# Without a workload each side of a pair is
# `bash benchmark/run.sh run -seed i -repeats 1` — every workload,
# untraced and traced, about 3.5 minutes — so the two sides' runs sit
# minutes, not hours, apart on a machine whose speed drifts. The per-pair
# files and their merge land in .bench_build/compare/ (A = parent, B =
# this checkout), judged by `benchmark/run.sh compare`; the exit status is
# compare's: 1 on a regression beyond BENCHMARK.json's bounds or a higher
# failed share.
#
# With a workload each side is the driver's own command,
# `bash benchmark/run.sh --workload W --seed i --trace 0` (about 26 s), and
# the script prints every pair's end-to-end values and, per metric, both
# medians, their ratio and in how many pairs this checkout read better —
# higher or lower as BENCHMARK.json's `better` says for that metric (the
# file is only read). `compare` reads `run`-mode files, so it is not called
# and the exit status is 0 unless a run failed.
# Needs jq.
set -eu

cd "$(dirname "$0")/.."
HEAD_DIR="$(pwd)"
PARENT_DIR="$(cd "$1" && pwd)"
PAIRS="${2:-5}"
WORKLOAD="${3:-}"
OUT="$HEAD_DIR/.bench_build/compare"
mkdir -p "$OUT"
rm -f "$OUT"/A*.json "$OUT"/B*.json "$OUT"/A*.txt "$OUT"/B*.txt

i=1
while [ "$i" -le "$PAIRS" ]; do
    if [ $((i % 2)) -eq 1 ]; then order="A B"; else order="B A"; fi
    for side in $order; do
        dir="$PARENT_DIR"
        [ "$side" = B ] && dir="$HEAD_DIR"
        echo "== pair $i of $PAIRS, side $side: $dir"
        if [ -n "$WORKLOAD" ]; then
            # The result is the last line of stdout; the report above it
            # (refused records, the allocation arc, decisions) is kept too.
            (cd "$dir" && bash benchmark/run.sh --workload "$WORKLOAD" --seed "$i" --trace 0) > "$OUT/${side}_$i.txt"
            tail -n 1 "$OUT/${side}_$i.txt" > "$OUT/${side}_$i.json"
        else
            (cd "$dir" && bash benchmark/run.sh run -seed "$i" -repeats 1 -out "$OUT/${side}_$i.json")
        fi
    done
    i=$((i + 1))
done

if [ -n "$WORKLOAD" ]; then
    # Glob order is not pair order past nine pairs; the files are matched
    # up by the seed in their names.
    jq -rn --arg w "$WORKLOAD" --slurpfile bench "$HEAD_DIR/BENCHMARK.json" '
        def r4: . * 10000 | round / 10000;
        def median: sort | if length % 2 == 1 then .[length / 2 | floor]
                           else (.[length / 2 - 1] + .[length / 2]) / 2 end;
        ($bench[0].end_to_end | map({key: .name, value: .better}) | from_entries) as $better
        | [inputs | {side: (input_filename | split("/") | last | .[0:1]),
                   seed: (input_filename | capture("_(?<n>[0-9]+)\\.json$").n | tonumber),
                   failed, m: (.metrics | map_values(.value))}] as $runs
        | ($runs | map(select(.side == "A")) | sort_by(.seed)) as $a
        | ($runs | map(select(.side == "B")) | sort_by(.seed)) as $b
        | "\($w): parent -> head, \($a | length) pairs; failed operations \($a | map(.failed) | add) -> \($b | map(.failed) | add)",
          ($a[0].m | keys[] | . as $k
            | ([range($a | length)] | map([$a[.].m[$k], $b[.].m[$k]])) as $pairs
            | ($pairs | map(.[0]) | median) as $ma | ($pairs | map(.[1]) | median) as $mb
            | "\($k): median \($ma | r4) -> \($mb | r4) (x\($mb / $ma | r4)),"
              + " head better (\($better[$k])) in \($pairs | map(select(if $better[$k] == "higher" then .[1] > .[0] else .[1] < .[0] end)) | length) of \($pairs | length)",
              "    " + ($pairs | map("\(.[0] | r4) -> \(.[1] | r4)") | join("; ")))
    ' "$OUT"/A_*.json "$OUT"/B_*.json
    exit 0
fi

for side in A B; do
    jq -s '.[0] + {repeats: length, runs: (map(.runs) | add)}' "$OUT/${side}"_*.json > "$OUT/$side.json"
done
bash benchmark/run.sh compare "$OUT/A.json" "$OUT/B.json"
