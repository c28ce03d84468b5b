#!/bin/sh
# bench.sh — the hot-path benchmark runner: runs the live runtime,
# WAL, lock manager, transport, and wire-codec benchmarks with a fixed
# -benchtime/-count and writes BENCH_live.json mapping each benchmark
# (package-qualified) to its ns/op, B/op, allocs/op, and any custom
# metrics (commits/sec, p50_us, ...). The live ParallelMultiSub
# benchmarks keep their single "optimized" arm under that name, which
# the default cmd/benchdiff gate keys on. The wire-codec benchmarks
# cover the one TCP format, protocol.BinaryCodec.
#
# Each benchmark runs COUNT times (default 3) and the written value is
# the per-metric MEDIAN across runs: a single noisy neighbor or cold
# page cache skews a mean but leaves the median alone, which is what a
# 20%-tolerance regression gate needs to stay quiet.
#
# Environment knobs:
#   BENCHTIME   go test -benchtime (default 1s)
#   COUNT       go test -count; medians are taken across runs (default 3)
#   BENCH       go test -bench filter regexp (default: every benchmark)
#   OUT         output path (default BENCH_live.json)
#   PKGS        packages to bench (default: live wal lockmgr netsim protocol)
#   CPUPROFILE  if set, write <CPUPROFILE>.<pkg> CPU profiles per package
#   MEMPROFILE  if set, write <MEMPROFILE>.<pkg> heap profiles per package
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
COUNT="${COUNT:-3}"
BENCH="${BENCH:-.}"
OUT="${OUT:-BENCH_live.json}"
PKGS="${PKGS:-./internal/live ./internal/wal ./internal/lockmgr ./internal/netsim ./internal/protocol}"

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

# summarize turns go test -bench output into the JSON "benchmarks"
# entries. A key is the package and the benchmark's name without the
# -N GOMAXPROCS suffix go test appends on a host with more than one
# CPU, so runs on any host match BENCH_live.json's keys.
summarize() {
    awk '
        $1 == "pkg:" { pkg = $2; next }
        /^Benchmark/ {
            name = $1
            sub(/-[0-9]+$/, "", name)
            key = pkg "." name
            if (!(key in runs)) order[n++] = key
            runs[key]++
            val[key, "@iters", runs[key]] = $2
            for (i = 3; i + 1 <= NF; i += 2) {
                u = $(i + 1)
                val[key, u, runs[key]] = $i
                if (index("|" units[key], "|" u "|") == 0) units[key] = units[key] u "|"
            }
        }
        # median of a metric across the runs it appeared in (a custom
        # metric may be reported by only some runs)
        function median(key, u,   cnt, i, j, t, arr) {
            cnt = 0
            for (i = 1; i <= runs[key]; i++)
                if ((key SUBSEP u SUBSEP i) in val)
                    arr[++cnt] = val[key, u, i]
            if (cnt == 0) return 0
            for (i = 2; i <= cnt; i++) {
                t = arr[i]
                for (j = i - 1; j >= 1 && arr[j] > t; j--) arr[j + 1] = arr[j]
                arr[j + 1] = t
            }
            if (cnt % 2) return arr[(cnt + 1) / 2]
            return (arr[cnt / 2] + arr[cnt / 2 + 1]) / 2
        }
        END {
            sep = ""
            for (j = 0; j < n; j++) {
                key = order[j]
                printf "%s    \"%s\": {\"runs\": %d, \"iterations\": %d", sep, key, runs[key], median(key, "@iters")
                m = split(units[key], us, "|")
                for (k = 1; k <= m; k++)
                    if (us[k] != "")
                        printf ", \"%s\": %g", us[k], median(key, us[k])
                printf "}"
                sep = ",\n"
            }
            printf "\n"
        }
    ' "$@"
}

# Check the key rule on a line as a 2-CPU host prints it.
fake='BenchmarkWALForceFsync/forcers16/adaptive-2   	     100	     12345 ns/op	         0.0625 syncs/force'
got=$(printf 'pkg: repro/internal/wal\n%s\n' "$fake" | summarize)
case "$got" in
*'"repro/internal/wal.BenchmarkWALForceFsync/forcers16/adaptive": {"runs": 1, "iterations": 100, "ns/op": 12345, "syncs/force": 0.0625}'*) ;;
*)
    echo "bench.sh: benchmark key check failed, got: $got" >&2
    exit 1
    ;;
esac

for pkg in $PKGS; do
    base=$(basename "$pkg")
    flags=""
    if [ -n "${CPUPROFILE:-}" ]; then flags="$flags -cpuprofile=${CPUPROFILE}.${base}"; fi
    if [ -n "${MEMPROFILE:-}" ]; then flags="$flags -memprofile=${MEMPROFILE}.${base}"; fi
    echo "== $pkg (benchtime=$BENCHTIME, count=$COUNT) =="
    # shellcheck disable=SC2086  # flags is intentionally word-split
    out=$(go test -run='^$' -bench="$BENCH" -benchmem -benchtime="$BENCHTIME" -count="$COUNT" $flags "$pkg")
    printf '%s\n' "$out"
    printf '%s\n' "$out" >>"$raw"
done

{
    echo "{"
    printf '  "benchtime": "%s",\n' "$BENCHTIME"
    printf '  "count": %s,\n' "$COUNT"
    printf '  "go": "%s",\n' "$(go env GOVERSION)"
    printf '  "benchmarks": {\n'
    summarize "$raw"
    echo "  }"
    echo "}"
} >"$OUT"

echo "wrote $OUT"
