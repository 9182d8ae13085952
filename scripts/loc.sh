#!/bin/sh
# loc.sh — count the code a simplicity PR is judged by: non-test,
# non-blank Go lines per top-level package, with ROADMAP's convention
# for the total (bench/ and internal/analysis are counted, shown, and
# left out of it: the one is the reference benchmark's own module, the
# other the lint tooling). A simplicity PR states this script's total on
# its parent and on its change; `make loc` runs it, and CI prints it in
# the check job's step summary.
#
#   scripts/loc.sh [dir]     dir defaults to the repository root
set -eu

cd "${1:-$(git rev-parse --show-toplevel 2>/dev/null || pwd)}"
find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' ! -path './.git/*' |
    sed 's|^\./||' | sort |
    while read -r f; do
        case "$f" in
        */*/*) pkg=$(echo "$f" | cut -d/ -f1-2) ;; # cmd/x, internal/x, examples/x
        */*) pkg=${f%%/*} ;;                        # bench
        *) pkg=. ;;
        esac
        echo "$pkg $(grep -c '[^[:space:]]' "$f" || true)"
    done |
    awk '
    { lines[$1] += $2 }
    END {
        for (p in lines) {
            excluded = (p == "bench" || p == "internal/analysis")
            printf "%7d  %s%s\n", lines[p], p, excluded ? "  (not in total)" : "" | "sort -k2"
            if (!excluded) total += lines[p]
        }
        close("sort -k2")
        printf "%7d  total (non-test, non-blank Go lines outside bench/ and internal/analysis)\n", total
    }'
