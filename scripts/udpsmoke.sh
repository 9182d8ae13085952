#!/bin/sh
# udpsmoke.sh — multi-process UDP deployment smoke test.
#
# Launches a three-member totem ring as three separate ftdomaind -node
# OS processes over real localhost UDP sockets (two replica hosts by the
# sorted-registry convention, the third hosting the gateway), runs the
# concurrent exactly-once append audit through the gateway with
# udpbench, and tears the fleet down. Exits non-zero on any
# failure: a node that dies, a gateway that never comes up, a lost or
# duplicated append. Used by `make smoke-udp` (part of `make check`)
# and CI.
set -eu

ROOT=$(git rev-parse --show-toplevel 2>/dev/null || pwd)
cd "$ROOT"
WORK=$(mktemp -d /tmp/udpsmoke.XXXXXX)
PIDS=""
cleanup() {
    for pid in $PIDS; do
        kill -TERM "$pid" 2>/dev/null || true
    done
    for pid in $PIDS; do
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

go build -o "$WORK/ftdomaind" ./cmd/ftdomaind
go build -o "$WORK/udpbench" ./cmd/udpbench

# Build the shared registry from freshly probed ports. The probe-then-
# bind window is racy in principle; launching is retried from scratch on
# failure.
attempt=1
while :; do
    set -- $("$WORK/udpbench" -freeports 3)
    REG="smoke/a=127.0.0.1:$1,smoke/b=127.0.0.1:$2,smoke/c=127.0.0.1:$3"
    PIDS=""
    : >"$WORK/gw.log"
    for node in smoke/a smoke/b smoke/c; do
        listen=""
        log="$WORK/$(echo "$node" | tr / _).log"
        if [ "$node" = smoke/c ]; then
            listen="-listen 127.0.0.1:0"
            log="$WORK/gw.log"
        fi
        # shellcheck disable=SC2086
        "$WORK/ftdomaind" -node "$node" -registry "$REG" -replicas 2 \
            -log-level error $listen >"$log" 2>&1 &
        PIDS="$PIDS $!"
    done
    # Wait for the gateway node to print its address and reach serving.
    GWADDR=""
    i=0
    while [ $i -lt 100 ]; do
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
    [ -n "$GWADDR" ] && break
    echo "udpsmoke: launch attempt $attempt failed; node logs:" >&2
    cat "$WORK"/*.log >&2 || true
    for pid in $PIDS; do kill -TERM "$pid" 2>/dev/null || true; done
    for pid in $PIDS; do wait "$pid" 2>/dev/null || true; done
    PIDS=""
    attempt=$((attempt + 1))
    if [ $attempt -gt 3 ]; then
        echo "udpsmoke: giving up after 3 launch attempts" >&2
        exit 1
    fi
done

echo "udpsmoke: ring up, gateway at $GWADDR (registry $REG)"
# The load is the exactly-once audit itself: eight clients appending at
# once.
"$WORK/udpbench" -addr "$GWADDR" -clients 8 -audit -audit-appends 25

# Every node process must still be alive after the load.
for pid in $PIDS; do
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "udpsmoke: a node process died during the soak; logs:" >&2
        cat "$WORK"/*.log >&2 || true
        exit 1
    fi
done
echo "udpsmoke: ok"
