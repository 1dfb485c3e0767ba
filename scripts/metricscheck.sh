#!/usr/bin/env sh
# metricscheck.sh — fail when the metric names registered in the source
# drift from the README "Observability" contract table (the block
# between the metrics-contract markers).
#
# Source side: every literal first argument to .Count / .Gauge /
# .Observe / .Hist on a trace, in non-test files outside the
# internal/obs substrate (which forwards caller-supplied names). A
# concatenated name's literal prefix matches the contract's template
# spelling:
#   "shbg.edges." + rule            ->  shbg.edges.<...>
#
# Exit 1 with a diff-style report on any mismatch; silent success
# otherwise. Wired into the tier-1 verify line (see ROADMAP.md).
set -eu

cd "$(dirname "$0")/.."

readme="README.md"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# --- contract side: "kind name" lines between the markers ------------
awk '/<!-- metrics-contract:begin -->/{in_block=1; next}
     /<!-- metrics-contract:end -->/{in_block=0}
     in_block && NF == 2 {print $1, $2}' \
    "$readme" | sort -u >"$tmp/contract"

# A trace holds counters, gauges and histograms; any other kind in the
# contract (a typo, a retired kind) is drift too.
if grep -vE '^(counter|gauge|histogram) ' "$tmp/contract" >"$tmp/unknown"; then
    sed 's/^/metricscheck: unknown metric kind in the README contract: /' "$tmp/unknown" >&2
    exit 1
fi

[ -s "$tmp/contract" ] || {
    echo "metricscheck: no metrics-contract block found in $readme" >&2
    exit 1
}

# --- source side -----------------------------------------------------
# Literal names (including literal prefixes of concatenated names,
# which keep their trailing dot), tagged with the registering method,
# then mapped to contract kinds.
grep -rhoE '\.(Count|Gauge|Observe|Hist)\("[a-z0-9_.]+"' \
    --include='*.go' --exclude='*_test.go' \
    --exclude-dir=obs \
    internal cmd |
    sed -E 's/^\.([A-Za-z]+)\("([^"]+)"/\1 \2/' |
    awk '{
        if ($1 == "Count") kind = "counter"
        else if ($1 == "Gauge") kind = "gauge"
        else kind = "histogram"
        print kind, $2
    }' | sort -u >"$tmp/source"

[ -s "$tmp/source" ] || {
    echo "metricscheck: found no metric registrations in the source" >&2
    exit 1
}

# --- match -----------------------------------------------------------
# A source name matches a contract entry exactly; a source name with a
# trailing dot (concatenation prefix) matches any contract entry that
# continues it with a <template>; a contract <template> entry is
# satisfied by a source prefix of it.
awk -v contract="$tmp/contract" -v source="$tmp/source" '
BEGIN {
    while ((getline line < contract) > 0) { cn[line] = 1; cl[++ncl] = line }
    close(contract)
    while ((getline line < source) > 0) { sn[line] = 1; sl[++nsl] = line }
    close(source)
    bad = 0

    for (i = 1; i <= nsl; i++) {
        line = sl[i]
        if (line in cn) continue
        split(line, f, " "); kind = f[1]; name = f[2]
        ok = 0
        if (name ~ /\.$/) {
            # concatenation prefix: any contract template continuing it
            for (j = 1; j <= ncl; j++) {
                split(cl[j], g, " ")
                if (g[1] == kind && index(g[2], name) == 1 && g[2] ~ /</) { ok = 1; break }
            }
        }
        if (!ok) {
            printf "metricscheck: %s %s is registered in the source but missing from the README contract\n", kind, name
            bad = 1
        }
    }

    for (j = 1; j <= ncl; j++) {
        line = cl[j]
        if (line in sn) continue
        split(line, g, " "); kind = g[1]; name = g[2]
        ok = 0
        if (name ~ /</) {
            prefix = name
            sub(/<.*$/, "", prefix)
            for (i = 1; i <= nsl; i++) {
                split(sl[i], f, " ")
                if (f[1] != kind) continue
                if (f[2] == prefix || index(f[2], prefix) == 1) { ok = 1; break }
            }
        }
        if (!ok) {
            printf "metricscheck: %s %s is in the README contract but never registered in the source\n", kind, name
            bad = 1
        }
    }
    exit bad
}'
