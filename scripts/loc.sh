#!/bin/sh
# loc.sh — non-test Go line counts per package directory, for sizing a
# change. For each directory given (default: internal/core,
# internal/live, internal/protocol and the whole tree) it counts the
# .go files under it, _test.go files and testdata and dot directories
# excluded, and prints their physical lines and their code lines: lines
# that are neither blank nor a // comment line. It only reports; it
# never fails a build.
#
#   scripts/loc.sh                     # the default set
#   scripts/loc.sh internal/wal cmd    # any directories
cd "$(dirname "$0")/.." || exit 0
[ $# -gt 0 ] || set -- internal/core internal/live internal/protocol .
printf '%-24s %8s %8s\n' dir lines code
for d in "$@"; do
    find "$d" \( -name '.?*' -o -name testdata \) -prune -o \
        -name '*.go' ! -name '*_test.go' -type f -exec cat {} + 2>/dev/null |
        awk -v d="$d" '
            { n++ }
            !/^[ \t]*$/ && !/^[ \t]*\/\// { c++ }
            END { printf "%-24s %8d %8d\n", d, n, c }'
done
exit 0
