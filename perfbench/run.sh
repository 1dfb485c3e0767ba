#!/usr/bin/env bash
# Builds the benchmark from source in this checkout, then runs it.
#
#   bash perfbench/run.sh --workload paper20|stream-small|serve-edit \
#       --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --workload all --seed N --seconds S --trace 0|1
#
# Run from the repository root. "all" (or no --workload) runs every
# workload, each in its own process, and fails if any of them does.
# Build products, the Go build cache, and traced runs' span files stay
# under .bench_build/ in the current directory.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# Keep the toolchain's caches and its config/telemetry directory in the
# checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off
(cd "$here" && go build -o "$out/perfbench" .) >&2

workload=""
rest=()
while [[ $# -gt 0 ]]; do
	if [[ $1 == --workload ]]; then
		workload=${2:-}
		shift 2
		continue
	fi
	rest+=("$1")
	shift
done

if [[ -n $workload && $workload != all ]]; then
	exec "$out/perfbench" --workload "$workload" "${rest[@]}"
fi
status=0
for w in paper20 stream-small serve-edit; do
	"$out/perfbench" --workload "$w" "${rest[@]}" || status=1
done
exit "$status"
