#!/bin/sh
# benchcompare.sh REF [BENCH_REGEX [ROUNDS [BENCHTIME]]]
#
# Interleaved A/B benchmark run: HEAD's working tree against REF. The
# current bench_throughput_test.go is overlaid onto a detached worktree
# of REF, so both sides run the *same* benchmark suite (the file is kept
# self-contained over bench_test.go helpers for exactly this reason).
# Rounds alternate before/after so machine-load drift cancels instead of
# biasing one side; the table at the end shows per-benchmark mean ns/op
# and the before/after speedup, then mean B/op and allocs/op ("al") on
# each side. Used by `make bench-compare`.
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
    (cd "$TREE" && go test -run xxx -bench "$REGEX" -benchmem -benchtime "$BENCHTIME" -count 1 .) | tee -a "$BEFORE" >&2
    echo "== round $i/$ROUNDS: after (working tree) ==" >&2
    go test -run xxx -bench "$REGEX" -benchmem -benchtime "$BENCHTIME" -count 1 . | tee -a "$AFTER" >&2
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
# row prints one benchmark: mean ns/op before and after and the speedup,
# then mean B/op and allocs/op before and after (-benchmem).
function row(label, bk, ak,    b, a) {
    b = mean(bns, bcnt, bk); a = mean(ans, acnt, ak)
    printf "%-52s %14d %14d %8.2fx %12d %12d %9d %9d\n", label, b, a, b / a,
        mean(bB, bcnt, bk), mean(aB, acnt, ak), mean(bal, bcnt, bk), mean(aal, acnt, ak)
}
FNR == 1 { side++ }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = B = al = 0
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        if ($(i + 1) == "B/op") B = $i
        if ($(i + 1) == "allocs/op") al = $i
    }
    if (side == 1) {
        if (!(name in bcnt)) order[++n] = name
        bns[name] += ns; bB[name] += B; bal[name] += al; bcnt[name]++
    } else {
        if (!(name in acnt)) aorder[++an] = name
        ans[name] += ns; aB[name] += B; aal[name] += al; acnt[name]++
    }
}
END {
    printf "%-52s %14s %14s %9s %12s %12s %9s %9s\n", "benchmark", "before ns/op", "after ns/op", "speedup",
        "before B/op", "after B/op", "before al", "after al"
    for (i = 1; i <= n; i++) {
        k = order[i]
        if (k in acnt) row(k, k, k)
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
            row(k " (vs " base ")", base, k)
        } else {
            printf "%-52s %14s %14d %9s %12s %12d %9s %9d\n", k, "(new)", mean(ans, acnt, k), "-",
                "-", mean(aB, acnt, k), "-", mean(aal, acnt, k)
        }
    }
}' "$BEFORE" "$AFTER"
