#!/usr/bin/env sh
# servesmoke.sh — end-to-end smoke test of the `sierra serve` daemon
# against the one-shot CLI: boot the daemon on a loopback port, submit
# a generated corpus app over HTTP, poll the job to completion, fetch
# the stored report, and require it to be byte-identical to the
# document `sierra -report-json` renders for the same bytes, both at
# default settings. The one-shot runs under GOMAXPROCS=1, so a CLI that
# resolves its refutation pool differently from the daemon on a one-CPU
# host fails here. Then resubmit the identical bytes (must be
# answered from the store without a new job), drive two warm edits of
# one lineage — a skeleton-visible one that patches the stages, then an
# If-operand one that reuses them — each with its report byte-identical
# to the one-shot CLI and /metrics showing its landing counter, require
# /metrics to show a core.layer_ms histogram for every layer a serve
# job runs, and shut the daemon down with SIGTERM, requiring a clean
# drain (exit 0).
#
# Wired into the tier-1 verify line (see ROADMAP.md). No arguments.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"; [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true' EXIT INT TERM

go build -o "$tmp/sierra" ./cmd/sierra
go run ./cmd/corpusgen -app SuperGenPass -out "$tmp/app.app"

# Pick a free port: bind :0 and read the address the daemon prints.
"$tmp/sierra" serve -addr 127.0.0.1:0 -store-dir "$tmp/store" 2>"$tmp/serve.log" &
pid=$!

base=""
for i in $(seq 1 50); do
    base=$(sed -n 's|.*listening on \(http://[0-9.:]*\).*|\1|p' "$tmp/serve.log")
    [ -n "$base" ] && break
    sleep 0.1
done
[ -n "$base" ] || { echo "servesmoke: daemon never announced its address" >&2; cat "$tmp/serve.log" >&2; exit 1; }

# Submit, poll, fetch.
curl -sf -X POST --data-binary @"$tmp/app.app" "$base/v1/apps" >"$tmp/submit.json"
job=$(sed -n 's/.*"job_id": "\([^"]*\)".*/\1/p' "$tmp/submit.json")
digest=$(sed -n 's/.*"digest": "\([^"]*\)".*/\1/p' "$tmp/submit.json")
[ -n "$job" ] && [ -n "$digest" ] || { echo "servesmoke: bad submit response:" >&2; cat "$tmp/submit.json" >&2; exit 1; }

status=""
for i in $(seq 1 300); do
    status=$(curl -sf "$base/v1/jobs/$job" | sed -n 's/.*"status": "\([^"]*\)".*/\1/p')
    [ "$status" = done ] && break
    [ "$status" = failed ] && { echo "servesmoke: job failed" >&2; curl -s "$base/v1/jobs/$job" >&2; exit 1; }
    sleep 0.1
done
[ "$status" = done ] || { echo "servesmoke: job never completed (last: $status)" >&2; exit 1; }

curl -sf "$base/v1/reports/$digest" >"$tmp/daemon-report.json"

# Parity: the one-shot CLI at its defaults must render the same bytes
# for the same input, even on one CPU.
GOMAXPROCS=1 "$tmp/sierra" -file "$tmp/app.app" -report-json "$tmp/oneshot-report.json" >/dev/null
if ! cmp -s "$tmp/daemon-report.json" "$tmp/oneshot-report.json"; then
    echo "servesmoke: daemon report differs from one-shot -report-json:" >&2
    diff "$tmp/oneshot-report.json" "$tmp/daemon-report.json" >&2 || true
    exit 1
fi

# A duplicate submission is answered from the store, without a job.
dup=$(curl -sf -X POST --data-binary @"$tmp/app.app" "$base/v1/apps")
case $dup in
*'"status": "done"'*) ;;
*) echo "servesmoke: duplicate submission not served from the store: $dup" >&2; exit 1 ;;
esac

# submit_wait <file>: submit an app, poll its job to completion, and
# print the report digest.
submit_wait() {
    curl -sf -X POST --data-binary @"$1" "$base/v1/apps" >"$tmp/sw.json"
    sw_job=$(sed -n 's/.*"job_id": "\([^"]*\)".*/\1/p' "$tmp/sw.json")
    sw_digest=$(sed -n 's/.*"digest": "\([^"]*\)".*/\1/p' "$tmp/sw.json")
    [ -n "$sw_job" ] && [ -n "$sw_digest" ] || { echo "servesmoke: bad submit response for $1:" >&2; cat "$tmp/sw.json" >&2; exit 1; }
    sw_status=""
    for i in $(seq 1 300); do
        sw_status=$(curl -sf "$base/v1/jobs/$sw_job" | sed -n 's/.*"status": "\([^"]*\)".*/\1/p')
        [ "$sw_status" = done ] && break
        [ "$sw_status" = failed ] && { echo "servesmoke: job for $1 failed" >&2; curl -s "$base/v1/jobs/$sw_job" >&2; exit 1; }
        sleep 0.1
    done
    [ "$sw_status" = done ] || { echo "servesmoke: job for $1 never completed (last: $sw_status)" >&2; exit 1; }
    printf '%s\n' "$sw_digest"
}

# stage_parity <app> <digest>: the daemon's stored report for a warm
# revision must be byte-identical to the one-shot CLI on its bytes.
stage_parity() {
    curl -sf "$base/v1/reports/$2" >"$tmp/stage-daemon.json"
    GOMAXPROCS=1 "$tmp/sierra" -file "$1" -report-json "$tmp/stage-oneshot.json" >/dev/null
    if ! cmp -s "$tmp/stage-daemon.json" "$tmp/stage-oneshot.json"; then
        echo "servesmoke: warm report for $1 differs from one-shot -report-json:" >&2
        diff "$tmp/stage-oneshot.json" "$tmp/stage-daemon.json" >&2 || true
        exit 1
    fi
}

# Incremental re-analysis: seed a warm baseline with a generated
# StageDemo app, resubmit a skeleton-visible one-method edit of it (an
# inserted dataflow sink: the stages are patched), then an If-operand
# edit of that revision (every guard flipped: the stages are reused).
# The daemon must absorb both against the warm baseline — /metrics must
# show each landing counter move — and store reports byte-identical to
# the one-shot CLI on the edited bytes.
go run ./cmd/corpusgen -stagedemo 6 -out "$tmp/stage-base.app"
go run ./cmd/corpusgen -stagedemo 6 -stagedemo-edit "load w a f1_0" -out "$tmp/stage-edit.app"
sed 's/^if c == int 1$/if c == int 0/' "$tmp/stage-edit.app" >"$tmp/stage-if.app"
cmp -s "$tmp/stage-edit.app" "$tmp/stage-if.app" && { echo "servesmoke: sed made no If-operand edit" >&2; exit 1; }

submit_wait "$tmp/stage-base.app" >/dev/null
edit_digest=$(submit_wait "$tmp/stage-edit.app")
stage_parity "$tmp/stage-edit.app" "$edit_digest"
if_digest=$(submit_wait "$tmp/stage-if.app")
stage_parity "$tmp/stage-if.app" "$if_digest"

curl -sf "$base/metrics" >"$tmp/metrics.txt"
for m in sierra_incremental_stage_applies sierra_incremental_applies; do
    v=$(awk -v m="$m" '$1 == m { print $2 }' "$tmp/metrics.txt")
    [ -n "$v" ] && [ "$v" -ge 1 ] || {
        echo "servesmoke: /metrics $m = ${v:-absent}, want >= 1 (an edit was not absorbed by the warm baseline)" >&2
        grep sierra_incremental "$tmp/metrics.txt" >&2 || true
        exit 1
    }
done

# The daemon's ledger: every layer a serve job runs (all but compare)
# has timed at least one pass.
for layer in harness cgpa shbg pairs refute rank; do
    m="sierra_core_layer_ms_${layer}_count"
    v=$(awk -v m="$m" '$1 == m { print $2 }' "$tmp/metrics.txt")
    [ -n "$v" ] && [ "$v" -ge 1 ] || {
        echo "servesmoke: /metrics $m = ${v:-absent}, want >= 1 (the daemon lost a layer of its ledger)" >&2
        grep sierra_core_layer_ms "$tmp/metrics.txt" >&2 || true
        exit 1
    }
done

# Graceful drain: SIGTERM must end the daemon with exit 0.
kill -TERM "$pid"
code=0
wait "$pid" || code=$?
pid=""
[ "$code" -eq 0 ] || { echo "servesmoke: drain exited $code" >&2; cat "$tmp/serve.log" >&2; exit 1; }

echo "servesmoke: OK (digest $digest)"
