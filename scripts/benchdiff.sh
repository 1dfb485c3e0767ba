#!/usr/bin/env sh
# benchdiff.sh — run the kernel benchmarks (BenchmarkKernel*) and compare
# HEAD against a baseline ref.
#
#   ./scripts/benchdiff.sh -smoke        one iteration of every kernel bench
#                                        (the tier-1 clause: catches perf-path
#                                        code that only compiles under -bench),
#                                        plus one iteration of the parallel
#                                        refutation bench at 2 workers under
#                                        GOMAXPROCS=2
#   ./scripts/benchdiff.sh -cpu [list]   scaling lane: run the parallel
#                                        refutation kernel with jobs=N under
#                                        GOMAXPROCS=N for each N in the
#                                        comma-separated list (default
#                                        1,2,4,8) and write per-core ns/op
#                                        medians + speedup-vs-1 curves to
#                                        BENCH_scaling.json
#   ./scripts/benchdiff.sh -incr [N]     incremental lane: cold vs warm medians
#                                        for the canonical one-method
#                                        skeleton-visible edit on an N-group
#                                        generated app (default 24), asserting
#                                        byte-identical reports, written to
#                                        BENCH_incremental.json
#   ./scripts/benchdiff.sh -stream [cfg] streaming lane: fused generate+analyze
#                                        vs the same corpus pre-materialized on
#                                        disk (apps/sec both lanes, queue peak,
#                                        heap high water, verdict parity),
#                                        written to BENCH_streaming.json; cfg
#                                        defaults to a built-in all-family mix
#                                        of BENCH_STREAM_APPS (default 400) apps
#   ./scripts/benchdiff.sh <ref>         bench HEAD and <ref> (via a throwaway
#                                        git worktree) and print a per-kernel
#                                        ns/op + allocs/op delta as JSON in the
#                                        BENCH_kernels.json before/after shape
#
# Every comparison run also appends one entry — UTC date, HEAD SHA,
# baseline ref/SHA, and the per-kernel HEAD medians — to a cumulative
# trajectory file, so the kernels' perf history accretes alongside the
# BENCH_*.json artifacts.
#
# Environment:
#   BENCH_COUNT       -count for the comparison runs (default 3)
#   BENCH_PATTERN     bench regexp (default BenchmarkKernel)
#   BENCH_TRAJECTORY  trajectory file (default BENCH_trajectory.json at
#                     the repo root; set empty to skip the append)
set -eu

PATTERN="${BENCH_PATTERN:-BenchmarkKernel}"
COUNT="${BENCH_COUNT:-3}"
# The one parallel per-app kernel, the refutation pool; it exposes jobs=N
# sub-benchmarks whose list tracks GOMAXPROCS (see bench_kernels_test.go),
# so `-cpu N` always finds a matching jobs=N lane.
PAR_PATTERN='BenchmarkKernelRefutationParallel'

usage() {
    echo "usage: $0 -smoke | $0 -cpu [1,2,4,8] | $0 -incr [groups] | $0 -stream [config] | $0 <git-ref>" >&2
    exit 2
}

[ $# -ge 1 ] && [ $# -le 2 ] || usage
[ $# -eq 2 ] && [ "$1" != "-cpu" ] && [ "$1" != "-incr" ] && [ "$1" != "-stream" ] && usage

repo_root=$(git rev-parse --show-toplevel)
cd "$repo_root"

if [ "$1" = "-smoke" ]; then
    go test -run '^$' -bench "$PATTERN" -benchtime=1x .
    # One iteration of the parallel refutation bench at 2 workers with
    # two procs, so multi-worker scheduling is exercised even when the
    # sequential pass ran at GOMAXPROCS=1.
    go test -run '^$' -bench "$PAR_PATTERN/jobs=2\$" -benchtime=1x -cpu 2 .
    # One untimed iteration of the incremental lane: the cold/warm report
    # byte-parity assertion runs even when nobody benches the -incr lane.
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT INT TERM
    go run ./cmd/evaluate -incr-bench "$tmp/incr.json" -incr-iters 1 -incr-groups 6 -q
    echo "benchdiff: incremental smoke ok (byte-identical warm report)" >&2
    # One-iteration streaming smoke: a tiny fused generate+analyze run vs
    # its materialized twin; -stream-bench exits non-zero unless the two
    # lanes' verdict tables are byte-identical.
    cat >"$tmp/stream.cfg" <<EOF
corpus smoke-stream
seed 7
apps 6
scenario async-storm
scenario message-chain
scenario service-lifecycle
EOF
    go run ./cmd/evaluate -stream "$tmp/stream.cfg" -stream-bench "$tmp/stream.json" -q
    echo "benchdiff: streaming smoke ok (verdict parity stream vs disk)" >&2
    exit 0
fi

if [ "$1" = "-stream" ]; then
    OUT="${BENCH_STREAMING:-$repo_root/BENCH_streaming.json}"
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT INT TERM
    CFG="${2:-}"
    if [ -z "$CFG" ]; then
        CFG="$tmp/stream.cfg"
        cat >"$CFG" <<EOF
# benchdiff -stream default mix: every scenario family at its default
# weight except table2-x10, whose ~10x apps cost minutes each and
# would dominate the lane; pass a config path to bench a custom
# corpus (including table2-x10) instead.
corpus benchdiff-stream
seed 20180425
apps ${BENCH_STREAM_APPS:-400}
scenario paper-mix
scenario async-storm
scenario guarded-sync
scenario service-lifecycle
scenario message-chain
scenario reflection-storm
scenario alias-trap-deep
EOF
    fi
    echo "benchdiff: streaming lane ($CFG)..." >&2
    go run ./cmd/evaluate -stream "$CFG" -stream-bench "$OUT" -q
    cat "$OUT"
    echo "benchdiff: wrote $OUT" >&2
    exit 0
fi

if [ "$1" = "-incr" ]; then
    GROUPS="${2:-24}"
    INCR_OUT="${BENCH_INCR:-$repo_root/BENCH_incremental.json}"
    echo "benchdiff: incremental lane groups=$GROUPS iters=${BENCH_INCR_ITERS:-7}..." >&2
    go run ./cmd/evaluate -incr-bench "$INCR_OUT" \
        -incr-iters "${BENCH_INCR_ITERS:-7}" -incr-groups "$GROUPS"
    cat "$INCR_OUT"
    echo "benchdiff: wrote $INCR_OUT" >&2
    exit 0
fi

if [ "$1" = "-cpu" ]; then
    CPUS="${2:-1,2,4,8}"
    SCALING="${BENCH_SCALING:-$repo_root/BENCH_scaling.json}"
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT INT TERM
    host_cpus=$(nproc 2>/dev/null || echo 1)
    # Honesty on small hosts: a jobs=N lane with N > host_cpus measures
    # scheduler overhead, not parallel speedup, and would poison the
    # speedup-vs-1 curve. Skip those lanes and record them in the
    # artifact; BENCH_OVERSUB=1 forces them anyway.
    RUN_CPUS=""
    SKIPPED=""
    for n in $(printf '%s' "$CPUS" | tr ',' ' '); do
        if [ "$n" -gt "$host_cpus" ] && [ "${BENCH_OVERSUB:-0}" != "1" ]; then
            SKIPPED="${SKIPPED:+$SKIPPED,}$n"
            echo "benchdiff: skipping jobs=$n lane (host has $host_cpus CPUs; BENCH_OVERSUB=1 forces it)" >&2
            continue
        fi
        RUN_CPUS="${RUN_CPUS:+$RUN_CPUS,}$n"
    done
    if [ -z "$RUN_CPUS" ]; then
        echo "benchdiff: no runnable -cpu lanes: every requested N in {$CPUS} exceeds the host's $host_cpus CPUs" >&2
        exit 1
    fi
    for n in $(printf '%s' "$RUN_CPUS" | tr ',' ' '); do
        echo "benchdiff: scaling lane GOMAXPROCS=$n jobs=$n (count=$COUNT)..." >&2
        # jobs=N exists at every N because the benches' jobs list includes
        # GOMAXPROCS(0); the jobs=N$ anchor skips any #01 duplicate.
        go test -run '^$' -bench "$PAR_PATTERN/jobs=$n\$" -benchmem \
            -count="$COUNT" -cpu "$n" . >>"$tmp/scaling.txt"
    done
    awk -v cpus="$RUN_CPUS" -v skipped="$SKIPPED" -v host_cpus="$host_cpus" -v count="$COUNT" \
        -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
        -v head_sha="$(git rev-parse HEAD)" '
    function median(arr, n,    i, j, tmpv, half) {
        for (i = 2; i <= n; i++) {
            tmpv = arr[i]
            for (j = i - 1; j >= 1 && arr[j] > tmpv; j--) arr[j + 1] = arr[j]
            arr[j + 1] = tmpv
        }
        half = int((n + 1) / 2)
        return arr[half]
    }
    function med(kernel, jobs,    i, tmpa) {
        for (i = 1; i <= cnt[kernel, jobs]; i++) tmpa[i] = ns[kernel, jobs, i]
        return median(tmpa, cnt[kernel, jobs])
    }
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)          # strip the -N GOMAXPROCS suffix
        split(name, parts, "/")
        kernel = parts[1]
        jobs = parts[2]
        sub(/^jobs=/, "", jobs)
        if (!(kernel in seen)) { seen[kernel] = 1; kernels[++nk] = kernel }
        for (k = 3; k <= NF; k++)
            if ($k == "ns/op") {
                cnt[kernel, jobs]++
                ns[kernel, jobs, cnt[kernel, jobs]] = $(k - 1) + 0
            }
    }
    END {
        nc = split(cpus, cl, ",")
        # stable kernel order
        for (i = 1; i <= nk; i++)
            for (j = i + 1; j <= nk; j++)
                if (kernels[j] < kernels[i]) { t = kernels[i]; kernels[i] = kernels[j]; kernels[j] = t }
        printf "{\n  \"schema\": \"sierra-kernel-scaling/v1\",\n"
        printf "  \"date\": \"%s\",\n  \"head_sha\": \"%s\",\n", date, head_sha
        printf "  \"host_cpus\": %d,\n  \"count\": %d,\n", host_cpus, count
        printf "  \"cpus\": [%s],\n", cpus
        printf "  \"skipped_oversubscribed\": [%s],\n", skipped
        printf "  \"note\": \"Each lane runs jobs=N under GOMAXPROCS=N. jobs=1 is the shared-memo sequential refuter; jobs>=2 is the per-pair pool, whose reports are byte-identical at any count, so speedup_vs_1 compares the pool against the sequential refuter, not one kernel at two widths. Lanes with N > host_cpus oversubscribe the host and measure scheduling overhead, not parallel speedup; they are skipped (and listed in skipped_oversubscribed) unless BENCH_OVERSUB=1 forces them.\",\n"
        printf "  \"kernels\": {\n"
        for (i = 1; i <= nk; i++) {
            kernel = kernels[i]
            base = 0
            printf "    \"%s\": {\n      \"ns_op\": {", kernel
            sep = ""
            for (c = 1; c <= nc; c++) {
                if (cnt[kernel, cl[c]] == 0) continue
                m = med(kernel, cl[c])
                if (cl[c] + 0 == 1) base = m
                printf "%s\"%s\": %d", sep, cl[c], m
                sep = ", "
            }
            printf "},\n      \"speedup_vs_1\": {"
            sep = ""
            for (c = 1; c <= nc; c++) {
                if (cl[c] + 0 == 1 || cnt[kernel, cl[c]] == 0) continue
                m = med(kernel, cl[c])
                printf "%s\"%s\": %.2f", sep, cl[c], (base > 0 && m > 0 ? base / m : 0)
                sep = ", "
            }
            printf "}\n    }%s\n", (i < nk ? "," : "")
        }
        printf "  }\n}\n"
    }' "$tmp/scaling.txt" >"$SCALING"
    cat "$SCALING"
    echo "benchdiff: wrote $SCALING" >&2
    exit 0
fi

ref="$1"
git rev-parse --verify --quiet "$ref^{commit}" >/dev/null || {
    echo "benchdiff: not a commit: $ref" >&2
    exit 1
}

# run_bench <dir> <outfile>: full -benchmem runs, raw `go test` output.
run_bench() {
    (cd "$1" && go test -run '^$' -bench "$PATTERN" -benchmem -count="$COUNT" .) >"$2"
}

tmp=$(mktemp -d)
wt="$tmp/baseline"
cleanup() {
    git worktree remove --force "$wt" >/dev/null 2>&1 || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "benchdiff: benching HEAD ($(git rev-parse --short HEAD))..." >&2
run_bench "$repo_root" "$tmp/head.txt"

echo "benchdiff: benching $ref ($(git rev-parse --short "$ref"))..." >&2
git worktree add --detach "$wt" "$ref" >/dev/null
run_bench "$wt" "$tmp/base.txt"

TRAJ="${BENCH_TRAJECTORY-$repo_root/BENCH_trajectory.json}"

# Reduce each raw output to "name ns_op bytes_op allocs_op" medians and
# join the two runs into before/after JSON; the HEAD medians also go to
# the one-line trajectory entry.
awk -v baseline="$tmp/base.txt" -v head="$tmp/head.txt" \
    -v entry="$tmp/entry.json" \
    -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -v head_sha="$(git rev-parse HEAD)" \
    -v base_ref="$ref" \
    -v base_sha="$(git rev-parse "$ref^{commit}")" '
function median(arr, n,    i, j, tmpv, half) {
    for (i = 2; i <= n; i++) {
        tmpv = arr[i]
        for (j = i - 1; j >= 1 && arr[j] > tmpv; j--) arr[j + 1] = arr[j]
        arr[j + 1] = tmpv
    }
    half = int((n + 1) / 2)
    return arr[half]
}
function slurp(file, ns, by, al, cnt,    line, f, name, n, k) {
    while ((getline line < file) > 0) {
        n = split(line, f, /[ \t]+/)
        if (f[1] !~ /^Benchmark/ || n < 4) continue
        # Benchmark lines interleave custom metrics ("231.0 actions")
        # with the standard ones, so locate values by their unit label.
        sub(/-[0-9]+$/, "", f[1])
        name = f[1]
        cnt[name]++
        for (k = 3; k <= n; k++) {
            if (f[k] == "ns/op")     ns[name, cnt[name]] = f[k-1] + 0
            if (f[k] == "B/op")      by[name, cnt[name]] = f[k-1] + 0
            if (f[k] == "allocs/op") al[name, cnt[name]] = f[k-1] + 0
        }
    }
    close(file)
}
function med3(src, name, n,    i, tmpa) {
    for (i = 1; i <= n; i++) tmpa[i] = src[name, i]
    return median(tmpa, n)
}
BEGIN {
    slurp(baseline, bns, bby, bal, bcnt)
    slurp(head, hns, hby, hal, hcnt)
    printf "{\n  \"schema\": \"sierra-kernel-benchdiff/v1\",\n  \"kernels\": {\n"
    first = 1
    for (name in hcnt) names[++nn] = name
    # stable output order
    for (i = 1; i <= nn; i++)
        for (j = i + 1; j <= nn; j++)
            if (names[j] < names[i]) { t = names[i]; names[i] = names[j]; names[j] = t }
    ekernels = ""
    for (i = 1; i <= nn; i++) {
        name = names[i]
        if (!(name in bcnt)) continue
        b_ns = med3(bns, name, bcnt[name]); h_ns = med3(hns, name, hcnt[name])
        b_al = med3(bal, name, bcnt[name]); h_al = med3(hal, name, hcnt[name])
        b_by = med3(bby, name, bcnt[name]); h_by = med3(hby, name, hcnt[name])
        if (!first) printf ",\n"
        first = 0
        printf "    \"%s\": {\n", name
        printf "      \"before\": {\"ns_op\": %d, \"bytes_op\": %d, \"allocs_op\": %d},\n", b_ns, b_by, b_al
        printf "      \"after\":  {\"ns_op\": %d, \"bytes_op\": %d, \"allocs_op\": %d},\n", h_ns, h_by, h_al
        printf "      \"speedup\": %.2f,\n", (h_ns > 0 ? b_ns / h_ns : 0)
        printf "      \"allocs_ratio\": %.2f\n    }", (h_al > 0 ? b_al / h_al : 0)
        if (ekernels != "") ekernels = ekernels ","
        ekernels = ekernels sprintf("\"%s\":{\"ns_op\":%d,\"bytes_op\":%d,\"allocs_op\":%d}", \
                                    name, h_ns, h_by, h_al)
    }
    printf "\n  }\n}\n"
    printf "{\"date\":\"%s\",\"head_sha\":\"%s\",\"base_ref\":\"%s\",\"base_sha\":\"%s\",\"kernels\":{%s}}\n", \
           date, head_sha, base_ref, base_sha, ekernels > entry
}' </dev/null

# Append the entry to the cumulative trajectory array (one entry per
# line, so `git diff` shows one added line per run).
if [ -n "$TRAJ" ] && [ -s "$tmp/entry.json" ]; then
    if [ -s "$TRAJ" ]; then
        sed '$d' "$TRAJ" >"$tmp/traj"       # drop the closing ]
        sed '$s/$/,/' "$tmp/traj" >"$TRAJ"  # comma after the last entry
    else
        printf '[\n' >"$TRAJ"
    fi
    cat "$tmp/entry.json" >>"$TRAJ"
    printf ']\n' >>"$TRAJ"
    echo "benchdiff: appended trajectory entry to $TRAJ" >&2
fi
