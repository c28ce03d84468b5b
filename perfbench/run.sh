#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it sits in and runs it.
# Everything it builds or writes stays under .bench_build/ at the
# checkout's root.
#
#   bash perfbench/run.sh --workload fanout3 --seed 1 --seconds 10 --trace 0
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$(dirname "$here")/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/run" "$@"
