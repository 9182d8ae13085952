#!/bin/sh
# copymap.sh [-n] [REF]
#
# Prints the datapath's copy map: which call site allocates how many
# payload-sized buffers per 16 KiB leader-mode round trip at r=3 on four
# processors (the large_rtt shape). It runs TestDatapathAllocBudget's
# 16KiB row with -memprofilerate=1, so every allocation is sampled and the figures are
# exact, and attributes each buffer to the first non-inlined function
# that asked for it (an encoder makes its buffer itself, or carves it). A
# unit is one 18 KiB allocation per op: the size class a 16 KiB payload
# plus headers lands in.
#
# With -n it prints the fixed-cost maps instead, one after the other: the
# 64B row (the small_rtt shape: leader ordering on memnet), the
# 64B-udp-ring row (ring ordering over loopback UDP sockets, one call at
# a time) and the 64B-udp-ring-x32 row (the same with 32 calls in flight
# through udp_ring_ladder's admission policy, the udp_ring_ladder shape,
# where messages travel packed) and the 64B-warm-passive row (the
# failover_passive shape without its faults: writes to a warm-passive
# group of three on five processors, where a primary's state syncs and
# the backups' logs are the cost), each profiled
# by alloc_objects, allocations per operation by the same attribution,
# for call sites that make at least a third of one — what a message costs
# whatever it carries. The domain's
# set-up is in the profile too; divided by the row's 850 operations it
# stays under that.
#
# With REF the same test (HEAD's alloc_budget_test.go and the test files
# that share its helpers overlaid onto an export of REF's tree) is
# profiled there too and each table shows before and after side by side:
# the tables in docs/PERFORMANCE.md are `scripts/copymap.sh [-n] <parent>`.
set -eu

ROWS=16KiB INDEX=alloc_space UNIT=18432 FLOOR=0.25 WHAT=units
if [ "${1:-}" = -n ]; then
    ROWS="64B 64B-udp-ring 64B-udp-ring-x32 64B-warm-passive" INDEX=alloc_objects UNIT=1 FLOOR=0.34 WHAT=allocs
    shift
fi
REF=${1:-}
ROOT=$(git rev-parse --show-toplevel)
cd "$ROOT"
WORK=$(mktemp -d "${TMPDIR:-/tmp}/copymap.XXXXXX")
trap 'rm -rf "$WORK"' EXIT INT TERM

# A row makes 250 warm-up calls and three windows of 200, however many at
# a time.
OPS=850

# profile TREE ROW OUT: "units function" lines, largest first, for call
# sites that cost at least FLOOR units per op.
profile() {
    # A tree that is over budget fails the test and is still profiled.
    (cd "$1" && go test -c -o "$WORK/t.test" . &&
        { "$WORK/t.test" -test.run "^TestDatapathAllocBudget\$/^$2\$" \
            -test.memprofilerate=1 -test.memprofile "$WORK/mem.prof" >/dev/null || true; })
    go tool pprof -sample_index="$INDEX" -unit=b -noinlines -top -nodecount=400 \
        "$WORK/t.test" "$WORK/mem.prof" 2>/dev/null |
        awk -v ops="$OPS" -v unit="$UNIT" -v floor="$FLOOR" '
            $1 ~ /^[0-9.]+[bB]?$/ && $2 ~ /%$/ {
                flat = $1; sub(/[bB]$/, "", flat)
                u = flat / ops / unit
                if (u >= floor) printf "%.1f %s\n", u, $6
            }' >"$3"
}

if [ -n "$REF" ]; then
    mkdir "$WORK/ref"
    git archive "$REF" | tar -x -C "$WORK/ref"
    cp alloc_budget_test.go bench_throughput_test.go keeper_test.go "$WORK/ref/"
fi

for ROW in $ROWS; do
    profile "$ROOT" "$ROW" "$WORK/after.txt"
    if [ -n "$REF" ]; then
        profile "$WORK/ref" "$ROW" "$WORK/before.txt"
    else
        : >"$WORK/before.txt"
    fi
    if [ "$ROWS" != "$ROW" ]; then
        printf '\nRow `%s`:\n\n' "$ROW"
    fi
    awk -v ref="$REF" -v what="$WHAT" '
        FILENAME == ARGV[1] { before[$2] = $1; order[++n] = $2; tb += $1; next }
        { after[$2] = $1; ta += $1; if (!($2 in before)) order[++n] = $2 }
        END {
            if (ref == "") {
                printf "| call site | %s/op |\n|---|---|\n", what
                for (i = 1; i <= n; i++) printf "| `%s` | %s |\n", order[i], after[order[i]]
                printf "| **total** | **%.1f** |\n", ta
                exit
            }
            printf "| call site | %s/op at %s | %s/op now |\n|---|---|---|\n", what, ref, what
            for (i = 1; i <= n; i++) {
                f = order[i]
                printf "| `%s` | %s | %s |\n", f, (f in before) ? before[f] : "–", (f in after) ? after[f] : "–"
            }
            printf "| **total** | **%.1f** | **%.1f** |\n", tb, ta
        }' "$WORK/before.txt" "$WORK/after.txt" | sed 's|eternalgw/internal/||; s|eternalgw_test\.|test: |'
done
