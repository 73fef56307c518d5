#!/bin/sh
# bench.sh — run the PR's key benchmarks with -benchmem and distill
# them into BENCH_pr10.json: one entry per benchmark (ns/op, B/op,
# allocs/op, the GOMAXPROCS it ran under), a run_trend_speedup block
# with the per-worker speedup of the parallel longitudinal sweep
# against its sequential baseline, a decode_throughput block (MB/s and
# elems/s per decode worker count, plus the raw reader-vs-BytesReader
# floor), a churn_replay block (sustained updates/s through the
# incremental AtomIndex, the nearest-rank p99 of one ApplyUpdate
# re-bucket, and that p99's speedup against full batch recomputation —
# this run's and the previous PR's), a daemon block (atomd point-query
# latency on the published view, which must stay allocation-free, and
# end-to-end TCP ingest throughput), and a vs_prev block with the RunTrend workers=1 time and
# allocation ratios against the previous PR's BENCH file. The RunTrend
# matrix runs at the host's native GOMAXPROCS and, on hosts with at
# least 8 cores, again pinned to 8 via `go test -cpu 8` (entries carry
# a "-8" name suffix and "cores": 8). On a smaller host that rerun
# would oversubscribe the scheduler and measure scheduling overhead
# rather than parallelism, so it is skipped and the output says so.
# Core counts come from the Go runtime (scripts/benchhost.go) rather
# than nproc: PR2's container-confined nproc recorded "cores": 1, which
# made its speedup numbers uninterpretable.
#
# Usage:
#   scripts/bench.sh            run benchmarks, write BENCH_pr10.json,
#                               and (if a previous BENCH_*.json exists)
#                               print per-benchmark deltas against it
#   scripts/bench.sh compare    just diff BENCH_pr10.json against the
#                               previous BENCH_*.json
# Run via `make bench` or directly.
set -eu

cd "$(dirname "$0")/.."

OUT=BENCH_pr10.json

# prev_bench prints the BENCH_prN.json with the highest N that is not
# $OUT. The sort is numeric: BENCH_pr10 is newer than BENCH_pr2.
prev_bench() {
    ls BENCH_pr*.json 2>/dev/null | grep -v "^$OUT\$" |
        sed -n 's/^BENCH_pr\([0-9][0-9]*\)\.json$/\1 &/p' |
        sort -n | tail -n 1 | cut -d ' ' -f 2
}

compare() {
    PREV=$(prev_bench)
    if [ -z "$PREV" ]; then
        echo "bench: no previous BENCH_*.json to compare against"
        return 0
    fi
    if [ ! -f "$OUT" ]; then
        echo "bench: $OUT not found; run scripts/bench.sh first" >&2
        return 1
    fi
    echo "== comparing $PREV -> $OUT"
    go run scripts/benchdiff.go "$PREV" "$OUT"
}

if [ "${1:-}" = "compare" ]; then
    compare
    exit $?
fi

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

HOST=$(go run scripts/benchhost.go)
NUMCPU=${HOST% *}
MAXPROCS=${HOST#* }

echo "== root benchmarks (end-to-end pipeline)"
go test -run xxx -bench 'BenchmarkAtomComputation$|BenchmarkSnapshotBuildFastPath$|BenchmarkRunTrendParallel' \
    -benchmem -benchtime 2x . | tee -a "$RAW"

if [ "$NUMCPU" -ge 8 ]; then
    echo "== RunTrend matrix at GOMAXPROCS=8 (-cpu 8)"
    go test -run xxx -bench 'BenchmarkRunTrendParallel' -cpu 8 \
        -benchmem -benchtime 2x . | tee -a "$RAW"
else
    echo "== RunTrend matrix at GOMAXPROCS=8 skipped: the runtime reports $NUMCPU cores, fewer than 8"
fi

echo "== churn replay benchmark (incremental delta kernel, p99 re-bucket latency)"
go test -run xxx -bench 'BenchmarkChurnReplay$' \
    -benchmem -benchtime 2s . | tee -a "$RAW"

echo "== core benchmarks (sharded grouping, origin kernel, delta kernel)"
go test -run xxx -bench 'BenchmarkComputeAtomsWorkers|BenchmarkVectorOrigin|BenchmarkApplyUpdate$' \
    -benchmem ./internal/core/ | tee -a "$RAW"

echo "== daemon benchmarks (atomd query hot path + TCP ingest throughput)"
go test -run xxx -bench 'BenchmarkAtomd' \
    -benchmem ./internal/atomd/ | tee -a "$RAW"

echo "== decode benchmarks (zero-copy reader, per-source fan-out)"
go test -run xxx -bench 'BenchmarkBytesReader$|BenchmarkReader$' \
    -benchmem ./internal/mrt/ | tee -a "$RAW"
go test -run xxx -bench 'BenchmarkStreamDecode' \
    -benchmem ./internal/bgpstream/ | tee -a "$RAW"

# Previous PR's RunTrend workers=1 baseline, for the vs_prev ratios.
PREV=$(prev_bench)
PREV_NS=0
PREV_ALLOCS=0
PREV_AC_NS=0
if [ -n "$PREV" ]; then
    LINE=$(grep '"BenchmarkRunTrendParallel/workers=1"' "$PREV" | head -n 1 || true)
    if [ -n "$LINE" ]; then
        PREV_NS=$(printf '%s\n' "$LINE" | sed 's/.*"ns_op": *\([0-9]*\).*/\1/')
        PREV_ALLOCS=$(printf '%s\n' "$LINE" | sed 's/.*"allocs_op": *\([0-9]*\).*/\1/')
    fi
    # Previous PR's full-recompute time: the floor the delta kernel's
    # p99 is measured against across PRs.
    LINE=$(grep '"BenchmarkAtomComputation"' "$PREV" | head -n 1 || true)
    if [ -n "$LINE" ]; then
        PREV_AC_NS=$(printf '%s\n' "$LINE" | sed 's/.*"ns_op": *\([0-9]*\).*/\1/')
    fi
fi

awk -v numcpu="$NUMCPU" -v maxprocs="$MAXPROCS" \
    -v prevfile="$PREV" -v prevns="$PREV_NS" -v prevallocs="$PREV_ALLOCS" \
    -v prevac="$PREV_AC_NS" '
BEGIN { n = 0 }
/^Benchmark/ && / ns\/op/ {
    name = $1
    # A trailing -N is the GOMAXPROCS the benchmark ran under (Go omits
    # it when GOMAXPROCS is 1). Keep it in the name — the -cpu 8 rerun
    # must not collide with the native entry — and record it as cores.
    cores = maxprocs
    if (match(name, /-[0-9]+$/)) cores = substr(name, RSTART + 1)
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")     ns[name] = $i
        if ($(i+1) == "B/op")      bytes[name] = $i
        if ($(i+1) == "allocs/op") allocs[name] = $i
        if ($(i+1) == "MB/s")      mbs[name] = $i
        if ($(i+1) == "elems/s")   eps[name] = $i
        if ($(i+1) == "updates/s") ups[name] = $i
        if ($(i+1) == "p99_rebucket_ns") p99[name] = $i
    }
    if (!(name in core)) order[n++] = name
    core[name] = cores
}
function basekey(name,  suffix) {
    # Baseline key for a workers=N entry: same -cpu suffix, workers=1.
    suffix = ""
    if (match(name, /-[0-9]+$/)) suffix = substr(name, RSTART)
    return "BenchmarkRunTrendParallel/workers=1" suffix
}
END {
    printf "{\n  \"bench\": \"pr10 atomd: streaming atom daemon serving point queries under live ingest\",\n"
    printf "  \"cores\": %d,\n", numcpu
    printf "  \"gomaxprocs\": %d,\n", maxprocs
    printf "  \"results\": [\n"
    for (i = 0; i < n; i++) {
        name = order[i]
        printf "    {\"name\": \"%s\", \"cores\": %d, \"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s}%s\n", \
            name, core[name], ns[name], bytes[name], allocs[name], (i < n-1 ? "," : "")
    }
    printf "  ]"
    m = 0; bestsp = 0; best = ""
    for (i = 0; i < n; i++) {
        name = order[i]
        if (name !~ /^BenchmarkRunTrendParallel\/workers=/) continue
        if (name ~ /^BenchmarkRunTrendParallel\/workers=1(-[0-9]+)?$/) continue
        bk = basekey(name)
        if (!(bk in ns) || ns[name] <= 0) continue
        sp = ns[bk] / ns[name]
        perw[m++] = sprintf("{\"name\": \"%s\", \"cores\": %d, \"speedup\": %.3f}", name, core[name], sp)
        if (sp > bestsp) {
            bestsp = sp
            best = sprintf("{\"name\": \"%s\", \"cores\": %d, \"speedup\": %.3f}", name, core[name], sp)
        }
    }
    if (m > 0) {
        printf ",\n  \"run_trend_speedup\": {\n    \"baseline\": \"workers=1 at the same GOMAXPROCS\",\n    \"per_worker\": [\n"
        for (i = 0; i < m; i++)
            printf "      %s%s\n", perw[i], (i < m-1 ? "," : "")
        printf "    ],\n    \"best\": %s\n  }", best
    }
    d = 0
    for (i = 0; i < n; i++) {
        name = order[i]
        if (name !~ /^BenchmarkStreamDecode\/workers=/) continue
        dec[d++] = sprintf("{\"name\": \"%s\", \"cores\": %d, \"mb_s\": %s, \"elems_s\": %s, \"allocs_op\": %s}", \
            name, core[name], mbs[name], eps[name], allocs[name])
    }
    if (d > 0) {
        printf ",\n  \"decode_throughput\": {\n    \"per_worker\": [\n"
        for (i = 0; i < d; i++)
            printf "      %s%s\n", dec[i], (i < d-1 ? "," : "")
        printf "    ]"
        for (name in mbs) {
            if (name ~ /^BenchmarkBytesReader(-[0-9]+)?$/)
                printf ",\n    \"bytes_reader_mb_s\": %s, \"bytes_reader_allocs_op\": %s", mbs[name], allocs[name]
            if (name ~ /^BenchmarkReader(-[0-9]+)?$/)
                printf ",\n    \"bufio_reader_mb_s\": %s", mbs[name]
        }
        printf "\n  }"
    }
    cr = ""; ac = ""
    for (i = 0; i < n; i++) {
        name = order[i]
        if (name ~ /^BenchmarkChurnReplay(-[0-9]+)?$/) cr = name
        if (ac == "" && name ~ /^BenchmarkAtomComputation(-[0-9]+)?$/) ac = name
    }
    if (cr != "") {
        printf ",\n  \"churn_replay\": {\n"
        printf "    \"updates_s\": %s,\n", ups[cr]
        printf "    \"p99_rebucket_ns\": %s,\n", p99[cr]
        printf "    \"allocs_op\": %s", allocs[cr]
        if (ac != "" && p99[cr] > 0)
            printf ",\n    \"full_recompute_ns\": %s,\n    \"p99_speedup_vs_full\": %.1f", ns[ac], ns[ac] / p99[cr]
        if (prevac > 0 && p99[cr] > 0)
            printf ",\n    \"prev_full_recompute_ns\": %s,\n    \"p99_speedup_vs_prev_full\": %.1f", prevac, prevac / p99[cr]
        printf "\n  }"
    }
    dq = 0; ding = ""
    for (i = 0; i < n; i++) {
        name = order[i]
        if (name ~ /^BenchmarkAtomdQuery\//)
            dqa[dq++] = sprintf("{\"name\": \"%s\", \"cores\": %d, \"ns_op\": %s, \"allocs_op\": %s}", \
                name, core[name], ns[name], allocs[name])
        if (name ~ /^BenchmarkAtomdIngest(-[0-9]+)?$/) ding = name
    }
    if (dq > 0 || ding != "") {
        printf ",\n  \"daemon\": {\n"
        if (dq > 0) {
            printf "    \"query\": [\n"
            for (i = 0; i < dq; i++)
                printf "      %s%s\n", dqa[i], (i < dq-1 ? "," : "")
            printf "    ]"
        }
        if (ding != "") {
            if (dq > 0) printf ",\n"
            printf "    \"ingest\": {\"updates_s\": %s, \"ns_op\": %s, \"allocs_op\": %s}", \
                ups[ding], ns[ding], allocs[ding]
        }
        printf "\n  }"
    }
    base = "BenchmarkRunTrendParallel/workers=1"
    if (prevns > 0 && (base in ns)) {
        printf ",\n  \"vs_prev\": {\n    \"baseline_file\": \"%s\",\n", prevfile
        printf "    \"run_trend_workers1\": {\"ns_speedup\": %.3f, \"allocs_ratio\": %.3f,", prevns / ns[base], allocs[base] / prevallocs
        printf " \"prev_allocs_op\": %s, \"allocs_op\": %s}\n  }", prevallocs, allocs[base]
    }
    printf "\n}\n"
}' "$RAW" > "$OUT"

echo "wrote $OUT"
compare
