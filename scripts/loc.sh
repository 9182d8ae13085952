#!/bin/sh
# loc.sh — count the code a simplicity PR is judged by: non-test,
# non-blank Go lines per top-level package, with ROADMAP's convention
# for the total (bench/ and internal/analysis are counted, shown, and
# left out of it: the one is the reference benchmark's own module, the
# other the lint tooling). A simplicity PR states this script's total on
# its parent and on its change; `make loc` runs it, and CI prints it in
# the check job's step summary.
#
#   scripts/loc.sh [dir]      dir defaults to the repository root
#   scripts/loc.sh -d <ref>   the packages that differ between <ref> and
#                             the working tree — parent, change, delta —
#                             and the two totals (`make loc LOC_REF=<ref>`)
set -eu

# count prints "<lines> <package>" for every package under directory $1.
count() {
    (cd "$1" && find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' ! -path './.git/*') |
        sed 's|^\./||' | sort |
        while read -r f; do
            case "$f" in
            */*/*) pkg=$(echo "$f" | cut -d/ -f1-2) ;; # cmd/x, internal/x, examples/x
            */*) pkg=${f%%/*} ;;                        # bench
            *) pkg=. ;;
            esac
            echo "$(grep -c '[^[:space:]]' "$1/$f" || true) $pkg"
        done |
        awk '{ lines[$2] += $1 } END { for (p in lines) print lines[p], p }' | sort -k2
}

ROOT=$(git rev-parse --show-toplevel 2>/dev/null || pwd)
NOTE='(non-test, non-blank Go lines outside bench/ and internal/analysis)'

if [ "${1:-}" != -d ]; then
    count "${1:-$ROOT}" | awk -v note="$NOTE" '
        {
            excluded = ($2 == "bench" || $2 == "internal/analysis")
            printf "%7d  %s%s\n", $1, $2, excluded ? "  (not in total)" : ""
            if (!excluded) total += $1
        }
        END { printf "%7d  total %s\n", total, note }'
    exit
fi

REF=${2:?usage: scripts/loc.sh -d <ref>}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
mkdir "$WORK/ref"
git -C "$ROOT" archive "$REF" | tar -x -C "$WORK/ref"
count "$WORK/ref" >"$WORK/parent.txt"
count "$ROOT" | awk -v note="$NOTE" '
    FILENAME == ARGV[1] { parent[$2] = $1; next }
    { change[$2] = $1 }
    END {
        printf "%-24s %6s %6s %6s\n", "package", "parent", "change", "delta"
        for (p in parent) all[p]; for (p in change) all[p]
        for (p in all) {
            if (p != "bench" && p != "internal/analysis") { tp += parent[p]; tc += change[p] }
            if (parent[p] != change[p])
                printf "%-24s %6d %6d %+6d\n", p, parent[p], change[p], change[p] - parent[p] | "sort"
        }
        close("sort")
        printf "%-24s %6d %6d %+6d  %s\n", "total", tp, tc, tc - tp, note
    }' "$WORK/parent.txt" -
