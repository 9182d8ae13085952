# Developer entry points. The CI gate is `make check`.

GO ?= go

.PHONY: build test vet lint lint-fast race check loc budget copymap sim sim-totem sim-long fuzz-smoke soak soak-reconfig soak-leader smoke-udp bench bench-smoke bench-module bench-baseline bench-compare bench-udp bench-allocs alloc-gate clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs the repository's domain analyzers (docs/STATIC_ANALYSIS.md):
# once under the go tool as a vettool (per-package findings, cached like
# vet), and once standalone for the whole-module checks a single build
# unit cannot see (metric/doc sync, module-wide duplicate registration).
lint:
	$(GO) build -o bin/gwlint ./cmd/gwlint
	$(GO) vet -vettool=$(CURDIR)/bin/gwlint ./...
	./bin/gwlint ./...

# lint-fast is the inner-loop variant: vettool mode only, so the go
# tool's per-package caching makes a clean re-run near-instant. It skips
# the standalone module-mode pass (metric/doc sync, duplicate
# registration, lock-order stitching across packages) — run `make lint`
# before pushing.
lint-fast:
	$(GO) build -o bin/gwlint ./cmd/gwlint
	$(GO) vet -vettool=$(CURDIR)/bin/gwlint ./...

# race runs the whole test suite under the race detector. (It was a
# recipe-less phony target for a while, which made `make check` pass
# without running any tests.)
race:
	$(GO) test -race -timeout 15m ./...

# check is the full verification gate: static analysis plus the whole
# test suite under the race detector, the deterministic simulation
# sweep, short decoder fuzzing, the reconfiguration and leader-crash
# soaks at a higher repetition count than one `go test` pass gives
# them, the multi-process UDP deployment smoke, a one-iteration
# benchmark smoke so a change that breaks benchmark setup (but not the
# tests) cannot land silently, the reference benchmark's own module, and
# the datapath's allocation budget.
check: vet lint race budget sim fuzz-smoke soak-reconfig soak-leader smoke-udp bench-smoke bench-module

# loc prints non-test, non-blank Go lines per top-level package and the
# total a simplicity PR is judged by (scripts/loc.sh: everything outside
# bench/ and internal/analysis). Such a PR states this number on its
# parent and on its change; with LOC_REF=<ref> the target prints the
# per-package parent/change/delta table against that ref instead.
LOC_REF ?=
loc:
	@scripts/loc.sh $(if $(LOC_REF),-d '$(LOC_REF)')

# budget runs the datapath allocation budget (alloc_budget_test.go: a
# leader-mode round trip at r=3 must stay under 120 KiB and 50
# allocations at 16 KiB, and under 5 KiB and 44 allocations at 64 B —
# large_rtt's copies and small_rtt's fixed cost) and the live-heap gate
# beside it (after 8192 echoes of 16 KiB the process holds under
# 4 x replication.ReplyWindow + 64 MiB: the operation tables are bounded
# by reply bytes) on their own, without the race detector's overhead, and
# prints the figures. `race` runs them too; this is the line to look for
# in a CI log. `make copymap` attributes a failure to a call site.
budget:
	$(GO) test -run 'TestDatapathAllocBudget$$|TestReplyWindowBoundsTheLiveHeap$$' -count 1 -v .

# copymap prints the two maps behind the budget (scripts/copymap.sh): which
# call site allocates how many payload-sized buffers per 16 KiB round trip,
# and which how many objects per 64 B round trip. With COPYMAP_REF=<ref>
# each is a before/after table against that ref.
COPYMAP_REF ?=
copymap:
	@echo '#### Payload-sized buffers per 16 KiB round trip (scripts/copymap.sh)'
	@scripts/copymap.sh $(COPYMAP_REF)
	@echo
	@echo '#### Allocations per 64 B round trip (scripts/copymap.sh -n)'
	@scripts/copymap.sh -n $(COPYMAP_REF)

# sim sweeps the deterministic simulation harness (internal/sim,
# docs/SIMULATION.md) over a bounded seed budget across every schedule
# class and workload, then proves the invariant checkers still have
# teeth: with a known-critical guard disabled (replica dedup, the
# membership-sync snapshot) a violating seed must turn up within the
# same budget. Failing seeds replay exactly: simrun -seed N -workload W
# -schedule S.
SIM_SEEDS ?= 200
SIM_TEETH_SEEDS ?= 30
sim:
	$(GO) run ./cmd/simrun -seeds $(SIM_SEEDS)
	$(GO) run ./cmd/simrun -seeds $(SIM_TEETH_SEEDS) -mutate disable-dedup
	$(GO) run ./cmd/simrun -seeds $(SIM_TEETH_SEEDS) -mutate disable-membership-sync

# sim-totem sweeps the shipping totem core itself — not a model of it —
# under a virtual clock, in both ordering modes: 5000 seeded schedules of
# loss, duplication, reorder and a silence-and-return
# (TestSeededRingsAgree), then 1000 seeds of four returns each under 40 %
# loss (TestHeavyLossReturnsSettle, the sweep that gives up gathers at
# the commit by the hundred). `go test ./...` runs 200 seeds of each; pass
# -seeds to go test for a larger sweep. About 55 s: 45 s and 10 s.
sim-totem:
	$(GO) test ./internal/totem -run TestSeededRingsAgree -seeds 5000
	$(GO) test ./internal/totem -run TestHeavyLossReturnsSettle -seeds 1000

# sim-long is the nightly-scale budget (override SIM_LONG_SEEDS).
SIM_LONG_SEEDS ?= 2000
sim-long: sim-totem
	$(GO) run ./cmd/simrun -seeds $(SIM_LONG_SEEDS) -metrics

# fuzz-smoke runs every decoder of bytes from outside the process
# briefly — GIOP and stringified IORs off the client's side, the UDP
# frame, the totem datagram and the replication message inside it off
# the ring — enough to catch a framing/decoder regression on the corpus
# frontier without turning `make check` into a fuzzing campaign. Targets
# run one at a time (the go tool rejects -fuzz matching multiple targets
# in one invocation). A change that adds a wire form adds its decoder's
# target here.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test ./internal/giop/ -fuzz FuzzUnmarshal -fuzztime $(FUZZTIME) -run xxx
	$(GO) test ./internal/giop/ -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME) -run xxx
	$(GO) test ./internal/giop/ -fuzz FuzzDecodeReply -fuzztime $(FUZZTIME) -run xxx
	$(GO) test ./internal/giop/ -fuzz FuzzReassembler -fuzztime $(FUZZTIME) -run xxx
	$(GO) test ./internal/totem/ -fuzz FuzzWireDecoders -fuzztime $(FUZZTIME) -run xxx
	$(GO) test ./internal/replication/ -fuzz FuzzDecode -fuzztime $(FUZZTIME) -run xxx
	$(GO) test ./internal/udpnet/ -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME) -run xxx
	$(GO) test ./internal/ior/ -fuzz FuzzParse -fuzztime $(FUZZTIME) -run xxx

# soak slams one admission-controlled gateway at 4x its configured
# in-flight window under the race detector while fault injection slows
# the domain (overload_test.go): the overload-protection acceptance gate.
SOAK_COUNT ?= 1
soak:
	$(GO) test -race -run TestGatewayOverloadSoak -count $(SOAK_COUNT) -timeout 10m -v .

# soak-reconfig rolling-upgrades a degree-3 active group and churns the
# gateway set while thin clients run at full load under the race
# detector (reconfig_soak_test.go): the online-reconfiguration
# acceptance gate — exactly-once, one total order, checkpointed
# catch-up, and IOR-driven gateway failover.
SOAK_RECONFIG_COUNT ?= 3
soak-reconfig:
	$(GO) test -race -run TestReconfigRollingUpgradeSoak -count $(SOAK_RECONFIG_COUNT) -timeout 10m -v .

# soak-leader crashes and restarts the totem sequencer while thin
# clients run at full load under the race detector
# (leader_soak_test.go): the ordering-fast-path acceptance gate —
# exactly-once across demotion to ring rotation and agreed
# re-promotion.
SOAK_LEADER_COUNT ?= 3
soak-leader:
	$(GO) test -race -run TestLeaderCrashSoak -count $(SOAK_LEADER_COUNT) -timeout 10m -v .

# smoke-udp launches a three-member totem ring as three separate OS
# processes over real localhost UDP sockets (ftdomaind -node), drives a
# short multi-client echo soak through a gateway, and audits that every
# append executed exactly once (scripts/udpsmoke.sh). Part of `make
# check`: the real-network deployment path must keep standing up.
smoke-udp:
	scripts/udpsmoke.sh

# bench runs the datapath throughput suite (round trips, multi-client
# load, replication-degree and multi-group sweeps, admission on/off)
# with the same methodology as the
# recorded BENCH_*.json trajectory files, then prints a JSON summary in
# the BENCH_baseline.json schema for side-by-side comparison. Override
# BENCH_COUNT for more repetitions.
BENCH_COUNT ?= 3
bench:
	$(GO) test -run xxx -bench 'BenchmarkE5GatewayLoops$$|BenchmarkGatewayRoundTrip|BenchmarkGatewayMultiClient|BenchmarkGatewayReplicationDegree|BenchmarkGatewayMultiGroup|BenchmarkGatewayAdmission' -benchtime 2s -count $(BENCH_COUNT) . | tee /tmp/bench_run.txt
	@awk -f scripts/benchjson.awk /tmp/bench_run.txt

# bench-smoke runs every benchmark in the module for exactly one
# iteration: it costs seconds and proves benchmark setup still compiles
# and stands up (domain construction, fast-path promotion, deploys) —
# regressions there otherwise surface only when someone next runs
# `make bench` by hand.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# bench-module vets and tests the reference benchmark (bench/, the
# program BENCHMARK.json runs). It is a module of its own, so `go build
# ./...`, `go test ./...` and `make lint` at the root never compile it:
# without this an internal/* API change breaks the benchmark silently.
# Its tests include a one-second smoke of every workload.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-udp records the real-network UDP datapath in the BENCH_udp.json
# schema: the in-process transport-level multi-client suite
# (BenchmarkUDPNetMultiClient) and the gateway suite over real sockets
# (BenchmarkGatewayMultiClientUDP), plus the multi-process sweep
# (scripts/benchudp.sh: one ftdomaind -node OS process per ring member,
# ring and leader ordering at r=1..3, exactly-once audited). Rows keep
# the "batched" names of the recorded file; its "perdatagram" rows
# measured a send path that no longer exists.
BENCH_UDP_ROUNDS ?= 3
BENCH_UDP_MP_ROUNDS ?= 2
bench-udp:
	: >/tmp/bench_udp.txt
	i=1; while [ $$i -le $(BENCH_UDP_ROUNDS) ]; do \
		echo "== bench-udp round $$i/$(BENCH_UDP_ROUNDS) ==" >&2; \
		$(GO) test -run xxx -bench 'BenchmarkUDPNetMultiClient|BenchmarkGatewayMultiClientUDP' -benchtime 2s -count 1 . | tee -a /tmp/bench_udp.txt || exit 1; \
		i=$$((i + 1)); \
	done
	scripts/benchudp.sh $(BENCH_UDP_MP_ROUNDS) 2s 8 | tee -a /tmp/bench_udp.txt
	awk -f scripts/benchjson.awk -v cmd='make bench-udp' /tmp/bench_udp.txt | tee BENCH_udp.json

# bench-allocs runs the three rows the copy and allocation diet is
# judged by — the leader-mode round trip, small and large, and the
# ring-mode large round trip — with -benchmem, and prints them in the
# trajectory schema with bytes_per_op and allocs_per_op beside ns_per_op
# (BENCH_pr14.json is this target run on the parent and on the change).
bench-allocs:
	$(GO) test -run xxx -bench 'BenchmarkGatewayRoundTripLeader$$' -benchmem -benchtime 2s -count $(BENCH_COUNT) . | tee /tmp/bench_allocs.txt
	$(GO) test -run xxx -bench 'BenchmarkGatewayRoundTrip$$/large' -benchmem -benchtime 2s -count $(BENCH_COUNT) . | tee -a /tmp/bench_allocs.txt
	@awk -f scripts/benchjson.awk -v cmd='make bench-allocs' /tmp/bench_allocs.txt

# bench-baseline reproduces the original gateway round-trip numbers
# recorded in BENCH_baseline.json (baseline vs instrumented datapath).
bench-baseline:
	$(GO) test -run xxx -bench 'BenchmarkE5GatewayLoops$$|BenchmarkE5GatewayLoopsInstrumented' -benchtime 2s -count $(BENCH_COUNT) .

# bench-compare runs the throughput suite interleaved against a named
# ref (HEAD's bench_throughput_test.go overlaid onto the ref's tree, so
# both sides run identical benchmarks) and prints a before/after table.
# This is the A/B methodology behind the BENCH_pr*.json files.
#   make bench-compare BENCH_REF=v0-tag BENCH_COUNT=3
BENCH_REF ?= HEAD~1
BENCH_REGEX ?= BenchmarkGatewayRoundTrip|BenchmarkGatewayMultiClient|BenchmarkGatewayReplicationDegree|BenchmarkGatewayMultiGroup
bench-compare:
	scripts/benchcompare.sh '$(BENCH_REF)' '$(BENCH_REGEX)' $(BENCH_COUNT) 2s

# alloc-gate is the allocation regression gate (scripts/allocgate.sh):
# the reference benchmark on ALLOC_GATE_REF and on the working tree in
# alternating pairs, the full `bench/run.sh compare` table printed, and a
# non-zero exit only when allocs_per_op or alloc_kb_per_op regressed on
# a workload — the two metrics that repeat closely enough on a shared
# machine to gate on. About 25 minutes at the default three pairs, so it
# is its own CI job and not part of `make check`.
#   make alloc-gate ALLOC_GATE_REF=origin/main
ALLOC_GATE_REF ?= HEAD~1
alloc-gate:
	scripts/allocgate.sh '$(ALLOC_GATE_REF)'

clean:
	$(GO) clean ./...
