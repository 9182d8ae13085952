# Developer entry points. The CI gate is `make check`.

GO ?= go

.PHONY: build test vet lint race check loc budget copymap sim sim-totem sim-long fuzz-smoke soak soak-reconfig soak-leader smoke-udp bench bench-smoke bench-module bench-compare alloc-gate clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint fails on any Go file gofmt would change (testdata excluded: the
# analyzers' corpora are inputs, not code), then runs the repository's
# domain analyzers (docs/STATIC_ANALYSIS.md) once over the module:
# every analyzer on every package, then lock order across packages.
lint:
	@unformatted=$$(find . \( -name testdata -o -name .bench_build -o -name .git \) -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "not gofmt-clean (gofmt -w them):"; echo "$$unformatted"; exit 1; fi
	$(GO) build -o bin/gwlint ./cmd/gwlint
	./bin/gwlint ./...

# race runs the whole test suite under the race detector. (It was a
# recipe-less phony target for a while, which made `make check` pass
# without running any tests.)
race:
	$(GO) test -race -timeout 15m ./...

# check is the full verification gate: static analysis plus the whole
# test suite under the race detector, the deterministic simulation
# sweep and the seeded sweeps of the shipping totem core in both ordering
# modes (a change to when a ring forms or promotes meets them here, not
# only in CI), short decoder fuzzing, the reconfiguration and
# leader-crash soaks at a higher repetition count than one `go test`
# pass gives them, the multi-process UDP deployment smoke, a
# one-iteration benchmark smoke so a change that breaks benchmark setup
# (but not the tests) cannot land silently, the reference benchmark's own
# module, and the datapath's allocation budget.
check: vet lint race budget sim sim-totem fuzz-smoke soak-reconfig soak-leader smoke-udp bench-smoke bench-module

# loc prints non-test, non-blank Go lines per top-level package and the
# total a simplicity PR is judged by (scripts/loc.sh: everything outside
# bench/ and internal/analysis), and the options of the same packages
# (Config, Properties and ServerOptions fields, cmd/ flags). Such a PR
# states these numbers on its parent and on its change; with
# LOC_REF=<ref> the target prints the per-package parent/change/delta
# table against that ref instead.
LOC_REF ?=
loc:
	@scripts/loc.sh $(if $(LOC_REF),-d '$(LOC_REF)')

# budget runs the datapath allocation budget (alloc_budget_test.go: a
# leader-mode round trip at r=3 must stay under 120 KiB and 10
# allocations at 16 KiB, and under 5 KiB and 5 allocations at 64 B —
# large_rtt's copies and small_rtt's fixed cost — and a ring-mode one
# over loopback UDP sockets under 10 KiB and 6 at 64 B, the fixed cost
# of a message and a datagram, and under 7 KiB and 6 with 32 calls in
# flight through admission, udp_ring_ladder's, where messages travel
# packed), the stand-up
# budget (a four-processor domain with a group of three and a gateway
# must be stood up in under 1.25 MB on memnet in leader mode and under
# 5 MB over loopback UDP in ring mode: a queue allocates what it holds,
# not its bound) and the live-heap gate beside it (after 8192 echoes of
# 16 KiB the process holds under 4 x replication.ReplyWindow + 64 MiB: the
# operation tables are bounded by reply bytes) on their own, without the race detector's overhead, and
# prints the figures. `race` runs them too; this is the line to look for
# in a CI log. `make copymap` attributes a failure to a call site. The
# second line holds the GIOP decoders to theirs: a request decoded in any
# GIOP version into the room the last one left allocates nothing, a reply
# nothing but its service-context list (TestDecodeAllocatesNothing). The
# third holds totem's datagrams that
# carry no payload — acks, tokens, by-reference batches, promotes, joins —
# to at most 0.05 allocations each, their share of a slab chunk
# (TestControlDatagramsAllocateNothing). The same holds a replica's
# responses, carved out of its own slab, to at most 0.1 allocations each
# (TestResponsesAllocateNothing), and what a receiver copies into a
# region of a slab of its own to at most 0.05: a UDP endpoint's received
# payloads (TestReceivedDatagramsAllocateNothing), the gateway record's
# copies of parts of packs (TestRecordCopiesAllocateNothing) and the
# gateway's request frames (TestCarvedFramesAllocateNothing). Each of
# these runs a batch of a hundred messages at a time, because
# testing.AllocsPerRun counts whole allocations a run: a message built in
# a buffer of its own again reads 1, one carved out of too short a chunk
# its share, and either fails there. TestNoKeeperHoldsAReceiveChunk and
# TestNoKeeperHoldsARequestChunk hold the keepers of a received byte to
# letting go of its chunk, and TestQuietUDPClientsPinABoundedHeap holds a
# quiet client's record entry over UDP to a chunk.
budget:
	$(GO) test -run 'TestDatapathAllocBudget$$|TestDomainSetUpAllocBudget$$|TestReplyWindowBoundsTheLiveHeap$$|TestNoKeeperHoldsAReceiveChunk$$|TestNoKeeperHoldsARequestChunk$$|TestQuietUDPClientsPinABoundedHeap$$' -count 1 -v .
	$(GO) test -run 'TestDecodeAllocatesNothing$$|TestCarvedFramesAllocateNothing$$' -count 1 -v ./internal/giop
	$(GO) test -run 'TestControlDatagramsAllocateNothing$$' -count 1 -v ./internal/totem
	$(GO) test -run 'TestResponsesAllocateNothing$$|TestRecordCopiesAllocateNothing$$' -count 1 -v ./internal/replication
	$(GO) test -run 'TestReceivedDatagramsAllocateNothing$$' -count 1 -v ./internal/udpnet

# copymap prints the maps behind the budget (scripts/copymap.sh): which
# call site allocates how many payload-sized buffers per 16 KiB round trip,
# and which how many objects per 64 B round trip — on memnet in leader
# ordering, and over loopback UDP in ring ordering. With COPYMAP_REF=<ref>
# each is a before/after table against that ref.
COPYMAP_REF ?=
copymap:
	@echo '#### Payload-sized buffers per 16 KiB round trip (scripts/copymap.sh)'
	@scripts/copymap.sh $(COPYMAP_REF)
	@echo
	@echo '#### Allocations per 64 B round trip, memnet and UDP (scripts/copymap.sh -n)'
	@scripts/copymap.sh -n $(COPYMAP_REF)

# sim sweeps the deterministic simulation harness (internal/sim,
# docs/SIMULATION.md) over a bounded seed budget across every schedule
# class and workload — 300 seeds of each of the two, 600 seeded runs of
# the shipping totem core — then proves the invariant checkers still
# have teeth: with a known-critical guard disabled (replica dedup, the
# membership-sync snapshot) a violating seed must turn up within 30.
# Failing seeds replay exactly: simrun -seed N -workload W -schedule S.
SIM_SEEDS ?= 300
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
# processes over real localhost UDP sockets (ftdomaind -node), has eight
# clients append through a gateway at once, and audits that every append
# executed exactly once (scripts/udpsmoke.sh). Part of `make
# check`: the real-network deployment path must keep standing up.
smoke-udp:
	scripts/udpsmoke.sh

# bench runs the datapath throughput suite (round trips in ring and
# leader mode, multi-client load, replication-degree and multi-group
# sweeps, admission on/off) and E5's gateway loops with their
# instrumented twin (BenchmarkE5GatewayLoopsInstrumented, the overhead
# row of BENCH_baseline.json), with -benchmem and the same methodology as
# the recorded BENCH_*.json trajectory files, then prints a JSON summary
# in the BENCH_baseline.json schema, with bytes_per_op and allocs_per_op
# beside ns_per_op. Override BENCH_COUNT for more repetitions.
BENCH_COUNT ?= 3
bench:
	$(GO) test -run xxx -bench 'BenchmarkE5GatewayLoops|BenchmarkGatewayRoundTrip|BenchmarkGatewayMultiClient|BenchmarkGatewayReplicationDegree|BenchmarkGatewayMultiGroup|BenchmarkGatewayAdmission' -benchmem -benchtime 2s -count $(BENCH_COUNT) . | tee /tmp/bench_run.txt
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

# bench-compare runs the throughput suite interleaved against a named
# ref (HEAD's bench_throughput_test.go overlaid onto the ref's tree, so
# both sides run identical benchmarks) and prints a before/after table
# of ns/op, B/op and allocs/op. This is the A/B methodology behind the
# BENCH_pr*.json files. The stand-up of a domain is its own row:
#   make bench-compare BENCH_REF=v0-tag BENCH_COUNT=3
#   make bench-compare BENCH_REF=v0-tag BENCH_REGEX=BenchmarkDomainSetUp
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
