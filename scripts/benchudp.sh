#!/bin/sh
# benchudp.sh [ROUNDS [DURATION [CLIENTS]]] — multi-process UDP
# throughput sweep.
#
# For every configuration (totem ordering ring|leader × replication
# degree r=1..3), launches a fresh four-member ring as four separate
# ftdomaind -node OS processes over real localhost UDP sockets (the
# first r sorted registry ids host replicas, the fourth hosts the
# gateway) and drives it with udpbench: a timed multi-client echo phase
# plus the exactly-once append audit. Row names keep the "batched" leg
# BENCH_udp.json recorded them under.
#
# Benchmark lines go to stdout in `go test -bench` format; `make
# bench-udp` aggregates them (together with the in-process
# BenchmarkGatewayMultiClientUDP rows) through scripts/benchjson.awk
# into the BENCH_udp.json schema. Diagnostics go to stderr.
set -eu

ROUNDS=${1:-2}
DURATION=${2:-2s}
CLIENTS=${3:-8}

ROOT=$(git rev-parse --show-toplevel 2>/dev/null || pwd)
cd "$ROOT"
WORK=$(mktemp -d /tmp/benchudp.XXXXXX)
PIDS=""
cleanup() {
    stop_fleet
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

go build -o "$WORK/ftdomaind" ./cmd/ftdomaind
go build -o "$WORK/udpbench" ./cmd/udpbench

stop_fleet() {
    for pid in $PIDS; do
        kill -TERM "$pid" 2>/dev/null || true
    done
    for pid in $PIDS; do
        wait "$pid" 2>/dev/null || true
    done
    PIDS=""
}

# launch_fleet ORDERING REPLICAS — start four node processes and set
# GWADDR to the gateway address. Retries from scratch when the
# probed registry ports are raced away.
launch_fleet() {
    ordering=$1
    replicas=$2
    attempt=1
    while :; do
        set -- $("$WORK/udpbench" -freeports 4)
        REG="bench/n0=127.0.0.1:$1,bench/n1=127.0.0.1:$2,bench/n2=127.0.0.1:$3,bench/n3=127.0.0.1:$4"
        PIDS=""
        rm -f "$WORK"/*.log
        for node in bench/n0 bench/n1 bench/n2 bench/n3; do
            listen=""
            log="$WORK/$(echo "$node" | tr / _).log"
            if [ "$node" = bench/n3 ]; then
                listen="-listen 127.0.0.1:0"
                log="$WORK/gw.log"
            fi
            # shellcheck disable=SC2086
            "$WORK/ftdomaind" -node "$node" -registry "$REG" \
                -replicas "$replicas" -ordering "$ordering" \
                -log-level error $listen >"$log" 2>&1 &
            PIDS="$PIDS $!"
        done
        GWADDR=""
        i=0
        while [ $i -lt 150 ]; do
            if grep -q '^serving' "$WORK/gw.log" 2>/dev/null; then
                GWADDR=$(sed -n 's/^gateway 0 listening on //p' "$WORK/gw.log" | head -1)
                break
            fi
            alive=true
            for pid in $PIDS; do
                kill -0 "$pid" 2>/dev/null || alive=false
            done
            $alive || break
            i=$((i + 1))
            sleep 0.2
        done
        [ -n "$GWADDR" ] && return 0
        echo "benchudp: launch attempt $attempt ($ordering r=$replicas) failed; node logs:" >&2
        cat "$WORK"/*.log >&2 || true
        stop_fleet
        attempt=$((attempt + 1))
        if [ $attempt -gt 3 ]; then
            echo "benchudp: giving up after 3 launch attempts" >&2
            exit 1
        fi
    done
}

round=1
while [ "$round" -le "$ROUNDS" ]; do
    for ordering in ring leader; do
        for replicas in 1 2 3; do
            echo "== round $round/$ROUNDS: $ordering r=$replicas ==" >&2
            launch_fleet "$ordering" "$replicas"
            "$WORK/udpbench" -addr "$GWADDR" -clients "$CLIENTS" \
                -duration "$DURATION" -payload 64 \
                -name "BenchmarkUDPMultiProcess/$ordering/batched/r=$replicas/c=$CLIENTS/small" \
                -audit -audit-appends 25 >"$WORK/bench.out"
            # Benchmark line to stdout, audit confirmation to stderr.
            grep '^Benchmark' "$WORK/bench.out"
            grep -v '^Benchmark' "$WORK/bench.out" >&2 || true
            stop_fleet
        done
    done
    round=$((round + 1))
done
