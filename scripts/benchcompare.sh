#!/bin/sh
# benchcompare.sh REF [BENCH_REGEX [ROUNDS [BENCHTIME]]]
#
# Interleaved A/B benchmark run: HEAD's working tree against REF. The
# current bench_throughput_test.go is overlaid onto a detached worktree
# of REF, so both sides run the *same* benchmark suite (the file is kept
# self-contained over bench_test.go helpers for exactly this reason).
# Rounds alternate before/after so machine-load drift cancels instead of
# biasing one side; the table at the end shows per-benchmark mean ns/op
# and the before/after speedup. Used by `make bench-compare`.
set -eu

REF=${1:?usage: benchcompare.sh REF [BENCH_REGEX [ROUNDS [BENCHTIME]]]}
REGEX=${2:-'BenchmarkGatewayRoundTrip|BenchmarkGatewayMultiClient|BenchmarkGatewayReplicationDegree|BenchmarkGatewayMultiGroup'}
ROUNDS=${3:-3}
BENCHTIME=${4:-2s}

ROOT=$(git rev-parse --show-toplevel)
cd "$ROOT"
WORK=$(mktemp -d /tmp/benchcompare.XXXXXX)
TREE="$WORK/ref"
cleanup() {
    git worktree remove --force "$TREE" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== before: $REF   after: working tree ==" >&2
git worktree add --detach "$TREE" "$REF" >/dev/null
cp bench_throughput_test.go "$TREE/bench_throughput_test.go"
# The overlay only works while HEAD's bench file compiles against the
# ref's packages; a ref predating a package the file imports (e.g.
# internal/admission) breaks it. Fall back to the ref's own suite then —
# the shared benchmarks still compare; ref-missing ones are skipped.
if ! (cd "$TREE" && go vet . >/dev/null 2>&1); then
    echo "== overlaid bench file does not compile at $REF; using ref's own bench_throughput_test.go ==" >&2
    (cd "$TREE" && git checkout -- bench_throughput_test.go 2>/dev/null) || \
        rm -f "$TREE/bench_throughput_test.go"
fi

BEFORE="$WORK/before.txt"
AFTER="$WORK/after.txt"
: >"$BEFORE"
: >"$AFTER"
i=1
while [ "$i" -le "$ROUNDS" ]; do
    echo "== round $i/$ROUNDS: before ($REF) ==" >&2
    (cd "$TREE" && go test -run xxx -bench "$REGEX" -benchtime "$BENCHTIME" -count 1 .) | tee -a "$BEFORE" >&2
    echo "== round $i/$ROUNDS: after (working tree) ==" >&2
    go test -run xxx -bench "$REGEX" -benchtime "$BENCHTIME" -count 1 . | tee -a "$AFTER" >&2
    # A regexp that matches nothing produces a clean PASS and an empty
    # comparison — indistinguishable from "no regression" unless caught.
    # Check after the first round so a typo fails in seconds, not after
    # every remaining round has burned its benchtime.
    if [ "$i" -eq 1 ]; then
        if ! grep -q '^Benchmark' "$BEFORE"; then
            echo "benchcompare: regex '$REGEX' matched no benchmarks at $REF" >&2
            exit 1
        fi
        if ! grep -q '^Benchmark' "$AFTER"; then
            echo "benchcompare: regex '$REGEX' matched no benchmarks in the working tree" >&2
            exit 1
        fi
    fi
    i=$((i + 1))
done

awk '
function mean(sums, cnts, k) { return sums[k] / cnts[k] }
FNR == 1 { side++ }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op") {
            if (side == 1) {
                if (!(name in bsum)) order[++n] = name
                bsum[name] += $i; bcnt[name]++
            } else {
                if (!(name in asum)) aorder[++an] = name
                asum[name] += $i; acnt[name]++
            }
            break
        }
    }
}
END {
    printf "%-52s %14s %14s %9s\n", "benchmark", "before ns/op", "after ns/op", "speedup"
    for (i = 1; i <= n; i++) {
        k = order[i]
        if (!(k in acnt)) continue
        b = mean(bsum, bcnt, k); a = mean(asum, acnt, k)
        printf "%-52s %14d %14d %8.2fx\n", k, b, a, b / a
    }
    # After-only benchmarks that are a mode variant of a before row are
    # scored against that baseline so the mode-vs-baseline speedup prints
    # directly: "Leader" rows against their ring-mode row (e.g.
    # GatewayRoundTripLeader/small vs GatewayRoundTrip/small), and
    # real-socket UDP rows against the memnet row of the same shape (e.g.
    # GatewayMultiClientUDP/batched/c=16/small vs
    # GatewayMultiClient/c=16/small — the price of a real network).
    for (i = 1; i <= an; i++) {
        k = aorder[i]
        if (k in bcnt) continue
        base = k
        sub(/Leader/, "", base)
        if (base == k) sub(/UDP\/batched/, "", base)
        if (base != k && (base in bcnt)) {
            b = mean(bsum, bcnt, base); a = mean(asum, acnt, k)
            printf "%-52s %14d %14d %8.2fx\n", k " (vs " base ")", b, a, b / a
        } else {
            printf "%-52s %14s %14d %9s\n", k, "(new)", mean(asum, acnt, k), "-"
        }
    }
}' "$BEFORE" "$AFTER"
