#!/bin/sh
# allocgate.sh BASE-REF [PAIRS [FIRST-SEED]]
#
# The allocation regression gate: runs the reference benchmark
# (bench/run.sh, the program BENCHMARK.json declares) on an export of
# BASE-REF and on the working tree, in alternating order, and fails when
# the working tree allocates more. Each pair runs the four workloads on
# a fresh seed, base first in odd pairs and the working tree first in
# even ones, each side built from its own source by its own bench/run.sh
# and run for the window bench/run.sh itself defaults to. Both result
# sets then go to `bench/run.sh compare`, whose table is printed in
# full; the exit status looks at two rows per workload only,
# allocs_per_op and alloc_kb_per_op, which repeat to a fraction of a
# percent on a shared machine (bench/README.md) and are therefore a gate
# where the timed rows — printed, never gated — are not. `make
# alloc-gate ALLOC_GATE_REF=<ref>` runs this; CI runs it against the
# merge base.
#
# PAIRS (default 3, the least that gives compare a quartile spread) and
# FIRST-SEED (default: from the clock; pair i runs both sides on
# FIRST-SEED + i - 1) exist for a PR's acceptance run, which wants ten
# pairs on seeds nobody has used; the gate itself takes neither.
#
# Result files stay in .bench_build/allocgate/{base,head} for a second
# look (`bench/run.sh compare` on them prints the table again).
set -eu

REF=${1:?usage: allocgate.sh BASE-REF [PAIRS [FIRST-SEED]]}
PAIRS=${2:-3}
SEED=${3:-$(($(date +%s) % 1000000))}

ROOT=$(git rev-parse --show-toplevel)
cd "$ROOT"
WORK=$(mktemp -d "${TMPDIR:-/tmp}/allocgate.XXXXXX")
trap 'rm -rf "$WORK"' EXIT INT TERM
mkdir "$WORK/base"
git archive "$REF" | tar -x -C "$WORK/base"

OUT="$ROOT/.bench_build/allocgate"
rm -rf "$OUT"
mkdir -p "$OUT/base" "$OUT/head"

WORKLOADS=$(bash bench/run.sh -list | awk '$1 == "workload" { print $2 }')

# run SIDE WORKLOAD SEED: one untraced run; a run that breaks an
# invariant exits non-zero and stops the gate.
run() {
    tree=$ROOT
    [ "$1" = base ] && tree=$WORK/base
    echo "== $1 $2 seed $3 ==" >&2
    (cd "$tree" && bash bench/run.sh -workload "$2" -seed "$3" -trace 0 -out "$OUT/$1") >/dev/null
}

i=1
while [ "$i" -le "$PAIRS" ]; do
    seed=$((SEED + i - 1))
    order="base head"
    [ $((i % 2)) -eq 0 ] && order="head base"
    for w in $WORKLOADS; do
        for side in $order; do
            run "$side" "$w" "$seed"
        done
    done
    i=$((i + 1))
done

# compare exits 0 (all ok), 1 (something regressed) or 3 (something
# unresolved) with a table; 2 is a usage or I/O error.
status=0
table=$(bash bench/run.sh compare "$OUT/base" "$OUT/head") || status=$?
[ "$status" -eq 2 ] && exit 2
echo "# base $REF, candidate the working tree; $PAIRS pairs, seeds $SEED..$((SEED + PAIRS - 1))"
printf '%s\n' "$table"

bad=$(printf '%s\n' "$table" | awk '($2 == "allocs_per_op" || $2 == "alloc_kb_per_op") && $NF == "REGRESSED"')
if [ -n "$bad" ]; then
    echo "alloc gate: the working tree allocates more than $REF:" >&2
    printf '%s\n' "$bad" >&2
    exit 1
fi
echo "# alloc gate: allocs_per_op and alloc_kb_per_op not regressed on any workload"
