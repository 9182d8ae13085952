#!/bin/sh
# loc.sh — count the code a simplicity PR is judged by: non-test,
# non-blank Go lines per top-level package, with ROADMAP's convention
# for the total (bench/ and internal/analysis are counted, shown, and
# left out of it: the one is the reference benchmark's own module, the
# other the lint tooling, which gets a total of its own, its analyzers'
# corpora included). A simplicity PR states both totals on
# its parent and on its change; `make loc` runs it, and CI prints it in
# the check job's step summary. The script also prints the same count of
# _test.go lines: code moved into a test file is no reduction, and shows
# there. Beside the lines it counts options, each a value a caller can
# set independently: the fields of exported structs named Config,
# Properties or ServerOptions, and the flags cmd/ defines, in the same
# packages as the line count.
#
#   scripts/loc.sh [dir]      dir defaults to the repository root
#   scripts/loc.sh -d <ref>   the packages that differ between <ref> and
#                             the working tree — parent, change, delta —
#                             and the totals of both kinds of line
#                             (`make loc LOC_REF=<ref>`)
set -eu

# count prints "<lines> <package> <kind>" for every package under
# directory $1, kind "test" for _test.go files and "code" for the rest.
count() {
    (cd "$1" && find . -name '*.go' ! -path './.bench_build/*' ! -path './.git/*') |
        sed 's|^\./||' | sort |
        while read -r f; do
            case "$f" in
            */*/*) pkg=$(echo "$f" | cut -d/ -f1-2) ;; # cmd/x, internal/x, examples/x
            */*) pkg=${f%%/*} ;;                        # bench
            *) pkg=. ;;
            esac
            case "$f" in
            *_test.go) kind=test ;;
            *) kind=code ;;
            esac
            echo "$(grep -c '[^[:space:]]' "$1/$f" || true) $pkg $kind"
        done |
        awk '{ lines[$2 " " $3] += $1 } END { for (k in lines) print lines[k], k }' | sort -k2
}

# options prints the number of options under directory $1: the fields
# (one per name) of `type Config|Properties|ServerOptions struct`, and
# the flags defined on the flag package or a FlagSet under cmd/, in
# non-test files outside bench/ and internal/analysis.
options() {
    (cd "$1" && find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' ! -path './.git/*' \
        ! -path './bench/*' ! -path './internal/analysis/*' | sort | xargs awk '
        FNR == 1 { depth = 0; inStruct = 0; delete sets; sets["flag"] = 1 }
        { line = $0; sub(/\/\/.*/, "", line) }
        inStruct {
            names = line
            sub(/^[ \t]+/, "", names)
            if (depth == 1 && names ~ /^[A-Za-z_]/) {
                for (n++; sub(/^[A-Za-z_][A-Za-z0-9_]*[ \t]*,[ \t]*/, "", names); ) n++
            }
            depth += gsub(/{/, "{", line) - gsub(/}/, "}", line)
            if (depth == 0) inStruct = 0
            next
        }
        /^type (Config|Properties|ServerOptions) struct {/ { inStruct = 1; depth = 1; next }
        FILENAME ~ /^\.\/cmd\// {
            if (match(line, /[A-Za-z_][A-Za-z0-9_]* *:?= *flag\.NewFlagSet/)) {
                v = substr(line, RSTART, RLENGTH); sub(/[ :=].*/, "", v); sets[v] = 1
            }
            while (match(line, /[A-Za-z_][A-Za-z0-9_]*\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc|TextVar|Var|BoolVar|IntVar|Int64Var|UintVar|Uint64Var|StringVar|Float64Var|DurationVar)\(/)) {
                call = substr(line, RSTART, RLENGTH); sub(/\..*/, "", call)
                if (call in sets) n++
                line = substr(line, RSTART + RLENGTH)
            }
        }
        END { print n + 0 }')
}

ROOT=$(git rev-parse --show-toplevel 2>/dev/null || pwd)
NOTE='(non-test, non-blank Go lines outside bench/ and internal/analysis)'
LINTNOTE='(the same lines of internal/analysis, testdata included)'
TESTNOTE='(_test.go non-blank lines, same packages)'
OPTNOTE='(Config, Properties and ServerOptions fields, and cmd/ flags, same packages)'

if [ "${1:-}" != -d ]; then
    count "${1:-$ROOT}" | awk -v note="$NOTE" -v lintnote="$LINTNOTE" -v testnote="$TESTNOTE" '
        {
            excluded = ($2 == "bench" || $2 == "internal/analysis")
            if ($3 == "test") {
                if (!excluded) tests += $1
                next
            }
            printf "%7d  %s%s\n", $1, $2, excluded ? "  (not in total)" : ""
            if (!excluded) total += $1
            if ($2 == "internal/analysis") lint = $1
        }
        END {
            printf "%7d  total %s\n", total, note
            printf "%7d  lint total %s\n", lint, lintnote
            printf "%7d  tests %s\n", tests, testnote
        }'
    printf "%7d  options %s\n" "$(options "${1:-$ROOT}")" "$OPTNOTE"
    exit
fi

REF=${2:?usage: scripts/loc.sh -d <ref>}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
mkdir "$WORK/ref"
git -C "$ROOT" archive "$REF" | tar -x -C "$WORK/ref"
count "$WORK/ref" >"$WORK/parent.txt"
count "$ROOT" | awk -v note="$NOTE" -v lintnote="$LINTNOTE" -v testnote="$TESTNOTE" '
    {
        counted = ($2 != "bench" && $2 != "internal/analysis")
        side = FILENAME == ARGV[1] ? "parent" : "change"
    }
    $3 == "test" { if (counted) tests[side] += $1; next }
    side == "parent" { parent[$2] = $1; next }
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
        lp = parent["internal/analysis"]; lc = change["internal/analysis"]
        printf "%-24s %6d %6d %+6d  %s\n", "lint total", lp, lc, lc - lp, lintnote
        printf "%-24s %6d %6d %+6d  %s\n", "tests", tests["parent"], tests["change"], tests["change"] - tests["parent"], testnote
        printf "%-24s %6d %6d %+6d\n", "total + tests", tp + tests["parent"], tc + tests["change"], tc + tests["change"] - tp - tests["parent"]
    }' "$WORK/parent.txt" -
op=$(options "$WORK/ref")
oc=$(options "$ROOT")
printf "%-24s %6d %6d %+6d  %s\n" options "$op" "$oc" $((oc - op)) "$OPTNOTE"
