#!/usr/bin/env sh
# benchdiff.sh — run the kernel benchmarks (BenchmarkKernel*) and compare
# HEAD against a baseline ref.
#
#   ./scripts/benchdiff.sh -smoke   one iteration of every kernel bench
#                                   (the tier-1 clause: catches perf-path
#                                   code that only compiles under -bench),
#                                   plus one iteration of the parallel
#                                   refutation bench at 2 workers under
#                                   GOMAXPROCS=2
#   ./scripts/benchdiff.sh <ref>    bench HEAD and <ref> (extracted with
#                                   `git archive` into a throwaway
#                                   directory) and print a per-kernel
#                                   ns/op + allocs/op before/after delta
#                                   as JSON; the refutation pool's widths
#                                   are the jobs=N lanes of
#                                   BenchmarkKernelRefutationParallel
#
# Every comparison run also appends one entry — UTC date, HEAD SHA,
# baseline ref/SHA, host CPU count, and the HEAD median of every kernel,
# including kernels the baseline lacks — to a cumulative trajectory
# file, so the kernels' perf history accretes.
#
# Environment:
#   BENCH_COUNT       -count for the comparison runs (default 3)
#   BENCH_PATTERN     bench regexp (default BenchmarkKernel)
#   BENCH_TRAJECTORY  trajectory file (default BENCH_trajectory.json at
#                     the repo root; set empty to skip the append)
set -eu

PATTERN="${BENCH_PATTERN:-BenchmarkKernel}"
COUNT="${BENCH_COUNT:-3}"
# The kernel benches live in the root package, except action
# attribution, which calls the unmemoized attribution in its package.
PKGS='. ./internal/actions'
# The one parallel per-app kernel, the refutation pool; it exposes jobs=N
# sub-benchmarks (see bench_kernels_test.go).
PAR_PATTERN='BenchmarkKernelRefutationParallel'

usage() {
    echo "usage: $0 -smoke | $0 <git-ref>" >&2
    exit 2
}

[ $# -eq 1 ] || usage
case "$1" in
-smoke) ;;
-*) usage ;;
esac

repo_root=$(git rev-parse --show-toplevel)
cd "$repo_root"

if [ "$1" = "-smoke" ]; then
    go test -run '^$' -bench "$PATTERN" -benchtime=1x $PKGS
    # One iteration of the parallel refutation bench at 2 workers with
    # two procs, so multi-worker scheduling is exercised even when the
    # sequential pass ran at GOMAXPROCS=1.
    go test -run '^$' -bench "$PAR_PATTERN/jobs=2\$" -benchtime=1x -cpu 2 .
    exit 0
fi

ref="$1"
git rev-parse --verify --quiet "$ref^{commit}" >/dev/null || {
    echo "benchdiff: not a commit: $ref" >&2
    exit 1
}

# run_bench <dir> <outfile>: full -benchmem runs, raw `go test` output.
run_bench() {
    (cd "$1" && go test -run '^$' -bench "$PATTERN" -benchmem -count="$COUNT" $PKGS) >"$2"
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

echo "benchdiff: benching HEAD ($(git rev-parse --short HEAD))..." >&2
run_bench "$repo_root" "$tmp/head.txt"

# A plain copy of the baseline tree needs only the object store, not
# the repository's worktree bookkeeping.
echo "benchdiff: benching $ref ($(git rev-parse --short "$ref"))..." >&2
mkdir "$tmp/baseline"
git archive "$ref" | tar -x -C "$tmp/baseline"
run_bench "$tmp/baseline" "$tmp/base.txt"

TRAJ="${BENCH_TRAJECTORY-$repo_root/BENCH_trajectory.json}"

# The HEAD side benches the working tree; uncommitted changes mark its
# SHA "-dirty".
head_sha=$(git rev-parse HEAD)
[ -z "$(git status --porcelain --untracked-files=no)" ] || head_sha="$head_sha-dirty"

# Reduce each raw output to "name ns_op bytes_op allocs_op" medians and
# join the two runs into before/after JSON; the HEAD medians also go to
# the one-line trajectory entry.
awk -v baseline="$tmp/base.txt" -v head="$tmp/head.txt" \
    -v entry="$tmp/entry.json" \
    -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -v head_sha="$head_sha" \
    -v base_ref="$ref" \
    -v base_sha="$(git rev-parse "$ref^{commit}")" \
    -v host_cpus="$(nproc 2>/dev/null || echo 1)" '
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
        h_ns = med3(hns, name, hcnt[name])
        h_al = med3(hal, name, hcnt[name])
        h_by = med3(hby, name, hcnt[name])
        if (ekernels != "") ekernels = ekernels ","
        ekernels = ekernels sprintf("\"%s\":{\"ns_op\":%d,\"bytes_op\":%d,\"allocs_op\":%d}", \
                                    name, h_ns, h_by, h_al)
        if (!(name in bcnt)) continue
        b_ns = med3(bns, name, bcnt[name])
        b_al = med3(bal, name, bcnt[name])
        b_by = med3(bby, name, bcnt[name])
        if (!first) printf ",\n"
        first = 0
        printf "    \"%s\": {\n", name
        printf "      \"before\": {\"ns_op\": %d, \"bytes_op\": %d, \"allocs_op\": %d},\n", b_ns, b_by, b_al
        printf "      \"after\":  {\"ns_op\": %d, \"bytes_op\": %d, \"allocs_op\": %d},\n", h_ns, h_by, h_al
        printf "      \"speedup\": %.2f,\n", (h_ns > 0 ? b_ns / h_ns : 0)
        printf "      \"allocs_ratio\": %.2f\n    }", (h_al > 0 ? b_al / h_al : 0)
    }
    printf "\n  }\n}\n"
    printf "{\"date\":\"%s\",\"head_sha\":\"%s\",\"base_ref\":\"%s\",\"base_sha\":\"%s\",\"host_cpus\":%d,\"kernels\":{%s}}\n", \
           date, head_sha, base_ref, base_sha, host_cpus, ekernels > entry
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
