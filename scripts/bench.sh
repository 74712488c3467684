#!/usr/bin/env sh
# bench.sh — run the hot-path benchmarks and emit BENCH_<n>.json, seeding
# the repository's perf trajectory (ns/op, B/op, allocs/op per benchmark).
# Every benchmark runs six times (go test -count 6); a row reports the
# median ns/op as ns_per_op next to ns_min, ns_max and runs, so a reader of
# two trajectory points can tell a move from this machine's run-to-run
# spread. (Points up to BENCH_10 are single runs and carry no spread. The
# regression-gated figures are benchmark/'s, not these — see README.)
#
# Usage: scripts/bench.sh [PR-number] [benchtime]
#   PR-number  suffix for the output file; when omitted (or empty) it is
#              derived from the repository's perf trajectory — the highest
#              existing BENCH_<n>.json plus one
#   benchtime  passed to -benchtime (default 2s)
#
# The benchmark set covers the data plane end to end — the live engine
# (BenchmarkEngineThroughput), the ingest front door's decode → admit →
# ring → spout hot path (BenchmarkIngest), the DES simulator
# (BenchmarkSimThroughput), a full controlled experiment
# (BenchmarkFig9VLD) — plus the control plane: one control round
# (BenchmarkSupervisorTick), one multi-tenant arbitration
# (BenchmarkSchedulerArbitration), one degraded-pool arbitration with a
# machine down (BenchmarkSchedulerFailover) and the sharded client
# registry at a million token buckets (BenchmarkBucketShard — the
# millions-of-users admission path), the group-commit WAL's amortized
# per-record append at batch 64 (BenchmarkWALAppend — the durable admit
# ACK path), the decision log's emit/encode paths (BenchmarkDecisionLog)
# with "Logged" twins of the tick/arbitration/admit benchmarks pricing
# observability on vs off, the per-tuple tracer's copy-in/sampling/encode
# hot paths (BenchmarkTraceSpan) with "Traced" twins pricing tracing on
# the engine and admit paths, and a full /metrics render over a
# serve-sized registry (BenchmarkMetricsScrape).
#
# Rows are grouped so a benchmark's Logged/Traced twins sit directly
# under their base row regardless of run order — diffing a trajectory
# point against its predecessor keeps every on/off pair adjacent.
set -eu

cd "$(dirname "$0")/.."

PR="${1:-}"
if [ -z "$PR" ]; then
    # Next point on the trajectory: highest BENCH_<n>.json + 1.
    LAST=$(ls BENCH_*.json 2>/dev/null | sed 's/^BENCH_\([0-9][0-9]*\)\.json$/\1/' | sort -n | tail -1)
    PR=$(( ${LAST:-0} + 1 ))
fi
BENCHTIME="${2:-2s}"
OUT="BENCH_${PR}.json"
PATTERN='BenchmarkEngineThroughput|BenchmarkIngest|BenchmarkSimThroughput|BenchmarkFig9VLD$|BenchmarkSupervisorTick|BenchmarkSchedulerArbitration|BenchmarkSchedulerFailover|BenchmarkBucketShard|BenchmarkWALAppend|BenchmarkDecisionLog|BenchmarkTraceSpan|BenchmarkMetricsScrape'

RAW="$(go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" -count 6 .)"
echo "$RAW"

echo "$RAW" | awk -v out="$OUT" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)      # strip -GOMAXPROCS suffix
    nsop = ""
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op") nsop = $i
        if ($(i+1) == "B/op") bop[name] = $i
        if ($(i+1) == "allocs/op") allocs[name] = $i
    }
    iters[name] = $2
    ns[name, ++runs[name]] = nsop
    if (runs[name] > 1) next
    # Group twins with their base: the group key strips the Logged/Traced
    # twin suffixes, groups keep first-appearance order, rows keep run
    # order within a group (the base always runs before its twins).
    base = name
    sub(/Logged$/, "", base); sub(/Traced$/, "", base)
    sub(/-logged$/, "", base); sub(/-traced$/, "", base)
    if (!(base in gidx)) gidx[base] = ++groups
    gi = gidx[base]
    rows[gi, ++gn[gi]] = name
    total++
}
END {
    printf "{\n  \"benchmarks\": [\n" > out
    k = 0
    for (i = 1; i <= groups; i++)
        for (j = 1; j <= gn[i]; j++) {
            name = rows[i, j]; n = runs[name]
            for (a = 2; a <= n; a++)            # insertion sort of the runs
                for (b = a; b > 1 && ns[name, b-1] + 0 > ns[name, b] + 0; b--) {
                    t = ns[name, b]; ns[name, b] = ns[name, b-1]; ns[name, b-1] = t
                }
            med = (n % 2) ? ns[name, (n+1)/2] : (ns[name, n/2] + ns[name, n/2+1]) / 2
            k++
            printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"ns_min\": %s, \"ns_max\": %s, \"runs\": %d, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
                name, iters[name], med, ns[name, 1], ns[name, n], n, bop[name], allocs[name], (k < total ? "," : "") >> out
        }
    printf "  ]\n}\n" >> out
}
'

echo "wrote $OUT"
