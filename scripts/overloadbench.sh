#!/bin/sh
# overloadbench.sh — the overload-survival runner: boot a three-daemon
# sharded fleet (C, which coordinates, and S1, S2) with priority-aware
# rate admission and live-signal backpressure on the coordinator,
# measure its capacity with a saturating open-loop probe, then offer
# multiples of that capacity and record goodput, shed rate, and p99 per point.
# Writes BENCH_overload.json in the shape scripts/bench.sh writes
# BENCH_live.json, so cmd/benchdiff can gate it:
#
#   "overload/x5": {"runs": 1, "iterations": <committed>,
#                   "goodput/sec": ..., "shed_rate": ..., "p99_ms": ...}
#
# The script itself enforces the survival contract before writing the
# file: every overloaded point (multiple >= 1) must keep goodput at or
# above MIN_GOODPUT_RATIO of measured capacity, and its p99 within
# P99_FACTOR of the unloaded (x0.5) p99 — an admission-controlled
# daemon sheds the excess at the door instead of queueing it into
# latency. Every daemon audits its protocol costs against the paper's
# closed forms throughout and re-audits on drain; a violation makes
# its process exit non-zero and fails the script, so a number only
# lands in the file if the cluster stayed exactly conformant while
# shedding.
#
# The load is typed puts: twopcload's uniform profile over a keyspace
# of a million, so lock conflicts stay rare. The daemons share the
# shard map hash:C,S1,S2 and reach each other's /v1/stage over
# -peer-http; C, which every request reaches, stages each owner's slice
# and coordinates. Every owner votes yes, so each commit is
# write-shaped: phase two runs, and admission charges it one token per
# participant. Sixteen keys per transaction put all but ~0.5% of
# commits on all three shards, so every commit costs the same: with
# mixed widths a saturating probe admits the narrow commits first, and
# the capacity it measures is more than a 5x load sustains.
#
# Environment knobs:
#   MULTIPLES          offered-load multiples of capacity (default "0.5 2 5 10";
#                      keep one point < 1 — it is the p99 baseline)
#   DURATION           per-point load duration (default 5s)
#   CALIBRATE_DURATION capacity-probe duration (default DURATION)
#   WORKERS            loadgen concurrency (default 256)
#   VARIANT            protocol variant (default pa)
#   ADMIT_RATE         coordinator -admit-rate ceiling (default 1000 —
#                      deliberately below the trio's raw protocol
#                      speed, so the token bucket is the measured
#                      capacity and overload sheds at the door; the
#                      backpressure controller guards the other case,
#                      a machine that cannot sustain the ceiling, by
#                      pulling the admit rate down on live signals)
#   ADMIT_BURST        coordinator -admit-burst (default 256)
#   MIN_GOODPUT_RATIO  goodput floor under overload (default 0.8)
#   P99_FACTOR         admitted-p99 ceiling vs unloaded (default 5)
#   OUT                output path (default BENCH_overload.json)
set -eu
cd "$(dirname "$0")/.."

MULTIPLES="${MULTIPLES:-0.5 2 5 10}"
DURATION="${DURATION:-5s}"
CALIBRATE_DURATION="${CALIBRATE_DURATION:-$DURATION}"
WORKERS="${WORKERS:-256}"
VARIANT="${VARIANT:-pa}"
ADMIT_RATE="${ADMIT_RATE:-1000}"
ADMIT_BURST="${ADMIT_BURST:-256}"
MIN_GOODPUT_RATIO="${MIN_GOODPUT_RATIO:-0.8}"
P99_FACTOR="${P99_FACTOR:-5}"
OUT="${OUT:-BENCH_overload.json}"

bindir=$(mktemp -d)
pids=""

cleanup() {
    for pid in $pids; do kill "$pid" 2>/dev/null || true; done
    for pid in $pids; do wait "$pid" 2>/dev/null || true; done
    rm -rf "$bindir"
}
trap cleanup EXIT INT TERM

echo "== building twopcd, twopcload =="
go build -o "$bindir" ./cmd/twopcd ./cmd/twopcload

# portfree exits zero only when every argument port is bindable on
# loopback: the probe half of the probe-and-retry port selection.
cat >"$bindir/portfree.go" <<'EOF'
package main

import (
	"net"
	"os"
)

func main() {
	for _, p := range os.Args[1:] {
		l, err := net.Listen("tcp", "127.0.0.1:"+p)
		if err != nil {
			os.Exit(1)
		}
		l.Close()
	}
}
EOF
go build -o "$bindir/portfree" "$bindir/portfree.go"

wait_healthy() { # url
    _wh_try=0
    until curl -fsS -o /dev/null "$1/healthz" 2>/dev/null; do
        _wh_try=$((_wh_try + 1))
        if [ "$_wh_try" -gt 100 ]; then
            echo "overloadbench: $1 never became healthy" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# Probe-and-retry port selection: 3 protocol + 3 HTTP ports.
attempt=0
while :; do
    block=$((30000 + (($$ + attempt * 613) % 25000)))
    p_c=$block p_s1=$((block + 1)) p_s2=$((block + 2))
    h_c=$((block + 3)) h_s1=$((block + 4)) h_s2=$((block + 5))
    if "$bindir/portfree" "$p_c" "$p_s1" "$p_s2" "$h_c" "$h_s1" "$h_s2"; then
        break
    fi
    attempt=$((attempt + 1))
    if [ "$attempt" -gt 50 ]; then
        echo "overloadbench: no bindable port block after $attempt probes" >&2
        exit 1
    fi
done

echo "== starting trio (C + S1 + S2 on hash:C,S1,S2, variant $VARIANT, admit-rate $ADMIT_RATE, backpressure on) =="
shardmap=hash:C,S1,S2
"$bindir/twopcd" -name S1 -listen "127.0.0.1:$p_s1" -http "127.0.0.1:$h_s1" -shardmap "$shardmap" \
    -peer "C=127.0.0.1:$p_c" -peer "S2=127.0.0.1:$p_s2" \
    -peer-http "C=http://127.0.0.1:$h_c" -peer-http "S2=http://127.0.0.1:$h_s2" \
    -audit-interval 500ms &
pid_s1=$!
"$bindir/twopcd" -name S2 -listen "127.0.0.1:$p_s2" -http "127.0.0.1:$h_s2" -shardmap "$shardmap" \
    -peer "C=127.0.0.1:$p_c" -peer "S1=127.0.0.1:$p_s1" \
    -peer-http "C=http://127.0.0.1:$h_c" -peer-http "S1=http://127.0.0.1:$h_s1" \
    -audit-interval 500ms &
pid_s2=$!
"$bindir/twopcd" -name C -listen "127.0.0.1:$p_c" -http "127.0.0.1:$h_c" -shardmap "$shardmap" \
    -variant "$VARIANT" \
    -peer "S1=127.0.0.1:$p_s1" -peer "S2=127.0.0.1:$p_s2" \
    -peer-http "S1=http://127.0.0.1:$h_s1" -peer-http "S2=http://127.0.0.1:$h_s2" \
    -admit-rate "$ADMIT_RATE" -admit-burst "$ADMIT_BURST" -backpressure \
    -audit-interval 500ms &
pid_c=$!
pids="$pid_s1 $pid_s2 $pid_c"

wait_healthy "http://127.0.0.1:$h_s1"
wait_healthy "http://127.0.0.1:$h_s2"
wait_healthy "http://127.0.0.1:$h_c"

multiples_csv=$(echo "$MULTIPLES" | tr ' ' ',')
echo "== overload sweep x{$multiples_csv} ($DURATION per point, $WORKERS workers) =="
rep=$("$bindir/twopcload" -target "http://127.0.0.1:$h_c" \
    -overload "$multiples_csv" -duration "$DURATION" \
    -calibrate-duration "$CALIBRATE_DURATION" -workers "$WORKERS" \
    -profile uniform:keys=1000000,fanout=16 -tx-prefix "ovl-$$" -json)
printf '%s\n' "$rep" | jq .

# The coordinator's own view of the sweep: admit rate after
# backpressure, per-class shed counters.
curl -fsS "http://127.0.0.1:$h_c/varz" |
    jq '{admit_rate, admit_tokens, admitted, shed, backpressure}' || true

# Survival contract, checked before anything is written.
bad_goodput=$(printf '%s' "$rep" | jq --argjson r "$MIN_GOODPUT_RATIO" '
    .capacity_cps as $cap |
    [.points[] | select(.multiple >= 1) | select(.goodput < $r * $cap)] | length')
if [ "$bad_goodput" -ne 0 ]; then
    echo "overloadbench: FAIL — goodput under overload fell below ${MIN_GOODPUT_RATIO}x capacity" >&2
    printf '%s' "$rep" | jq '{capacity_cps, points: [.points[] | {multiple, goodput, shed_rate}]}' >&2
    exit 1
fi
bad_p99=$(printf '%s' "$rep" | jq --argjson f "$P99_FACTOR" '
    ([.points[] | select(.multiple < 1)] | first) as $base |
    if $base == null or $base.p99_ms <= 0 then 0 else
        [.points[] | select(.multiple >= 1) | select(.p99_ms > $f * $base.p99_ms)] | length
    end')
if [ "$bad_p99" -ne 0 ]; then
    echo "overloadbench: FAIL — admitted p99 under overload exceeded ${P99_FACTOR}x the unloaded p99" >&2
    printf '%s' "$rep" | jq '[.points[] | {multiple, p99_ms}]' >&2
    exit 1
fi

# Drain: a conformance-audit violation on any daemon exits non-zero —
# shedding must leave the cost ledger exactly conformant.
for pid in $pids; do kill "$pid"; done
for pid in $pids; do
    if ! wait "$pid"; then
        echo "overloadbench: a daemon failed its drain audit" >&2
        pids=""
        exit 1
    fi
done
pids=""

printf '%s' "$rep" | jq --arg duration "$DURATION" --arg go "$(go env GOVERSION)" '
    .capacity_cps as $cap |
    {benchtime: $duration, count: 1, go: $go,
     benchmarks: (
        {"overload/capacity": {runs: 1, iterations: .calibration.committed,
                               "goodput/sec": $cap}}
        + ([.points[] | {
              key: "overload/x\(.multiple)",
              value: {runs: 1, iterations: .result.committed,
                      "goodput/sec": .goodput,
                      "offered/sec": .offered_rate,
                      goodput_ratio: (if $cap > 0 then .goodput / $cap else 0 end),
                      shed_rate: .shed_rate,
                      p99_ms: .p99_ms,
                      shed: .result.shed, dropped: .result.dropped,
                      aborted: .result.aborted, errors: .result.errors}
           }] | from_entries))}
' >"$OUT"

echo "wrote $OUT"
