# Development entry points. `make verify` is what CI runs and what a
# PR must keep green: build, go vet, the project's own phvet analyzers
# (walltime / detrand / lockguard / errdrop / mapiter / taintclock /
# goloss), the full test suite under the race detector with the
# goroutine-leak checker armed, and the benchmark's oracles.

GO ?= go

# PHVET_MAXTIME is the committed ceiling on a full phvet run. The
# loader parses and type-checks packages in parallel waves; if a change
# serializes it again the run blows this budget and phvet itself fails,
# the same way benchjson pins the perf floors. Generous vs. the ~3 s
# local run so a loaded CI box doesn't flake.
PHVET_MAXTIME ?= 30s

# The substrate benchmarks and the invariants the committed
# BENCH_netsim.json baseline pins: the named benchmarks must exist, the
# grid index must beat brute-force neighbor scans by >= 5x at 1000
# devices, and the fault-injection hooks must cost the fault-free path
# at most ~5% (plain:zerofault floors of 0.95 — a zero-rate plan is
# byte-identical in behavior, so any real slowdown is pure hook
# overhead).
BENCH_PATTERN = ^(BenchmarkNeighbors|BenchmarkBroadcastFanout|BenchmarkScaleDiscovery)$$
BENCH_REQUIRE = BenchmarkNeighbors/grid/devices=1000,BenchmarkNeighbors/brute/devices=1000,BenchmarkNeighbors/zerofault/devices=1000,BenchmarkBroadcastFanout/devices=1000,BenchmarkBroadcastFanout/zerofault/devices=1000,BenchmarkScaleDiscovery/peers=1000,BenchmarkScaleDiscovery/peers=2000
BENCH_RATIO   = BenchmarkNeighbors/brute/devices=1000:BenchmarkNeighbors/grid/devices=1000:5,BenchmarkNeighbors/grid/devices=1000:BenchmarkNeighbors/zerofault/devices=1000:0.95,BenchmarkBroadcastFanout/devices=1000:BenchmarkBroadcastFanout/zerofault/devices=1000:0.95

# The delta-synchronization benchmarks and the floors the committed
# BENCH_community.json baseline pins: at 500 peers a steady-state group
# round (primed cache, NOT_MODIFIED answers, fingerprint-skipped
# rebuild) must cost >= 3x less wall time and move >= 5x fewer wire
# bytes than a cold round (fresh client, full interest lists, full
# rebuild). The admission pair pins the overload defense: answering
# BUSY on the shed fast path must stay >= 5x cheaper than serving a
# bulk profile transfer, or shedding stops protecting the server.
COMBENCH_PATTERN = ^(BenchmarkGroupRound|BenchmarkWireCodecSized|BenchmarkServerAdmission)$$
COMBENCH_REQUIRE = BenchmarkGroupRound/cold/peers=10,BenchmarkGroupRound/steady/peers=10,BenchmarkGroupRound/cold/peers=100,BenchmarkGroupRound/steady/peers=100,BenchmarkGroupRound/cold/peers=500,BenchmarkGroupRound/steady/peers=500,BenchmarkWireCodecSized/marshal/fields=500,BenchmarkWireCodecSized/append/fields=500,BenchmarkWireCodecSized/unmarshal/fields=500,BenchmarkServerAdmission/serve,BenchmarkServerAdmission/shed
COMBENCH_RATIO   = BenchmarkGroupRound/cold/peers=500:BenchmarkGroupRound/steady/peers=500:3,BenchmarkGroupRound/cold/peers=500:BenchmarkGroupRound/steady/peers=500:5:wire-bytes/op,BenchmarkServerAdmission/serve:BenchmarkServerAdmission/shed:5

# The discrete-event engine benchmarks and the floors the committed
# BENCH_des.json baseline pins: at 1000 devices the same discovery
# sweep must cost >= 1.15x more per device-round on the goroutine
# engine than on the event engine, and growing the event engine's world
# 10x (1000 -> 10000 devices) may cost at most 2x per device-round
# (expressed as the 1k row keeping >= 0.5x of the 10k row) — wall-clock
# scales with executed events, not with device count. The sweep now
# reaches 100k devices, and the 50k workers=1 / workers=max pair pins
# the multi-core shard-execution speedup: on multi-core hardware the
# 1-worker run must cost >= 2x the GOMAXPROCS run per device-round.
# That ratio is only appended when nproc > 1 — on a single-core box
# both legs run the same sequential barrier and the floor would be
# vacuous noise. One iteration is one whole sweep, so the suite runs at
# -benchtime 1x; the smoke run passes -short, which skips every 50k+
# sweep (hence the smaller require list).
DESBENCH_PATTERN = ^BenchmarkDESScaleDiscovery$$
DESBENCH_REQUIRE_SMOKE = BenchmarkDESScaleDiscovery/engine=goroutine/devices=1000,BenchmarkDESScaleDiscovery/engine=des/devices=1000,BenchmarkDESScaleDiscovery/engine=des/devices=10000
DESBENCH_REQUIRE = $(DESBENCH_REQUIRE_SMOKE),BenchmarkDESScaleDiscovery/engine=des/devices=50000,BenchmarkDESScaleDiscovery/engine=des/devices=100000,BenchmarkDESScaleDiscovery/engine=des/devices=50000/workers=1,BenchmarkDESScaleDiscovery/engine=des/devices=50000/workers=max
DESBENCH_RATIO   = BenchmarkDESScaleDiscovery/engine=goroutine/devices=1000:BenchmarkDESScaleDiscovery/engine=des/devices=1000:1.15:ns/dev-round,BenchmarkDESScaleDiscovery/engine=des/devices=1000:BenchmarkDESScaleDiscovery/engine=des/devices=10000:0.5:ns/dev-round
DESBENCH_RATIO_MULTICORE = BenchmarkDESScaleDiscovery/engine=des/devices=50000/workers=1:BenchmarkDESScaleDiscovery/engine=des/devices=50000/workers=max:2:ns/dev-round
NPROC := $(shell nproc 2>/dev/null || echo 1)
ifneq ($(NPROC),1)
DESBENCH_RATIO := $(DESBENCH_RATIO),$(DESBENCH_RATIO_MULTICORE)
endif

# The epidemic-dissemination benchmarks and the floor the committed
# BENCH_gossip.json baseline pins: at 1000 devices the fan-out
# baseline's steady wire bytes per round must stay >= 3x the gossip
# engine's — once converged, dead rumors, bloom-skipped pushes and
# amortized anti-entropy digests must keep the epidemic an integer
# factor cheaper on the wire, or the dissemination claim regressed
# (measured headroom is ~14x; 3x absorbs knob and seed drift). The
# 10k/50k rows track the epidemic's flat per-device steady cost on the
# event engine; the 50k row is skipped by the -short smoke run.
GOSSIPBENCH_PATTERN = ^BenchmarkGossipConvergence$$
GOSSIPBENCH_REQUIRE_SMOKE = BenchmarkGossipConvergence/mode=fanout/devices=1000,BenchmarkGossipConvergence/mode=gossip/devices=1000,BenchmarkGossipConvergence/mode=gossip/engine=des/devices=10000
GOSSIPBENCH_REQUIRE = $(GOSSIPBENCH_REQUIRE_SMOKE),BenchmarkGossipConvergence/mode=gossip/engine=des/devices=50000
GOSSIPBENCH_RATIO   = BenchmarkGossipConvergence/mode=fanout/devices=1000:BenchmarkGossipConvergence/mode=gossip/devices=1000:3:wire-bytes/round

# The store-carry-forward benchmarks and the floors the committed
# BENCH_dtn.json baseline pins: on the sparse bus-line world — where
# delivery depends entirely on couriers carrying custody between
# partitioned stops — epidemic spray must cost at least 2x the social
# strategy's copies per delivered message (measured headroom ~4.8x;
# 2x absorbs seed and knob drift). The campus world is denser, so
# epidemic wastes less there; its pin is a milder 1.3x. The DES row
# re-runs the bus/social case on the event engine and is skipped by
# the -short smoke run.
DTNBENCH_PATTERN = ^BenchmarkDTNDelivery$$
DTNBENCH_REQUIRE_SMOKE = BenchmarkDTNDelivery/world=bus/strategy=epidemic/devices=200,BenchmarkDTNDelivery/world=bus/strategy=social/devices=200,BenchmarkDTNDelivery/world=campus/strategy=epidemic/devices=200,BenchmarkDTNDelivery/world=campus/strategy=social/devices=200
DTNBENCH_REQUIRE = $(DTNBENCH_REQUIRE_SMOKE),BenchmarkDTNDelivery/world=bus/strategy=social/engine=des/devices=200
DTNBENCH_RATIO   = BenchmarkDTNDelivery/world=bus/strategy=epidemic/devices=200:BenchmarkDTNDelivery/world=bus/strategy=social/devices=200:2:copies/delivered,BenchmarkDTNDelivery/world=campus/strategy=epidemic/devices=200:BenchmarkDTNDelivery/world=campus/strategy=social/devices=200:1.3:copies/delivered

.PHONY: verify build fmt-check vet phvet vet-baseline test race chaos fuzz bench bench-json bench-smoke bench-oracles

verify: build fmt-check vet phvet race chaos fuzz bench-smoke bench-oracles

build:
	$(GO) build ./...

# fmt-check fails on any file gofmt would rewrite. The analyzer
# fixtures under internal/analysis/testdata/ violate the invariants on
# purpose and are exempt, as is the benchmark's build directory.
fmt-check:
	@out="$$(gofmt -l . | grep -v -e '^internal/analysis/testdata/' -e '^\.bench_build/')"; \
	if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

phvet:
	$(GO) run ./cmd/phvet -baseline PHVET_BASELINE.json -maxtime $(PHVET_MAXTIME) ./...

# vet-baseline regenerates the committed suppression baseline from the
# current findings. The baseline only ever shrinks: fixing a
# grandfathered finding makes its entry stale, and a stale entry fails
# phvet until this target prunes it. Adding NEW entries is a review
# decision, not a reflex — prefer fixing the finding or a
# //phvet:ignore with a justification at the site.
vet-baseline:
	$(GO) run ./cmd/phvet -write-baseline PHVET_BASELINE.json ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos runs the seeded fault-injection suites — the link-fault
# matrix, the endpoint (stall/crash/overload) matrix, the gossip matrix
# and the store-carry-forward DTN matrix, each on both transport
# engines (rows of one chaos table; the TestChaos*DES rows run the
# matrices on the discrete-event engine) — twice under the race
# detector: -count=2 re-runs every
# scenario from the same seeds, so a pass also demonstrates replay
# determinism end to end. The explicit -timeout has headroom over go
# test's 10m default: three matrices × two engines × two counts under
# the race detector brush 10m on a single-core box.
chaos:
	$(GO) test -race -count=2 -timeout 40m -run 'TestChaos|TestZeroScenario|TestZeroGossipScenario|TestZeroDTNScenario' ./internal/simtest/

# fuzz replays the committed never-panic corpora (valid frames plus
# faults.Mangle damage and truncations) through the community, gossip
# and DTN wire decoders as ordinary deterministic tests — the seed
# corpus of each fuzzer, not an open-ended fuzzing session. The
# re-sealed corruption tests damage gossip and DTN frame bodies behind a
# valid checksum, so the damage reaches body parsing and the live
# serving steps. The shared sealed-frame package's suite runs whole.
fuzz:
	$(GO) test -run 'TestCorruptionCorpus|TestCodecRejectsMangledFrames|TestResealedCorruption|Fuzz' ./internal/community/ ./internal/gossip/ ./internal/dtn/
	$(GO) test ./internal/frame/

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# bench-json regenerates the committed baselines and enforces the
# speedup/overhead floors. Run it on a quiet machine. -count=5 repeats
# every benchmark; benchjson folds the repeats by median, which keeps
# one warmup or scheduler hiccup from deciding a ratio check. The
# community suite runs fewer iterations per repeat because one cold
# 500-peer round is itself a 500-connection experiment.
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime 500x -count=5 . > bench.out
	$(GO) run ./cmd/benchjson -o BENCH_netsim.json -require '$(BENCH_REQUIRE)' -ratio '$(BENCH_RATIO)' < bench.out
	$(GO) test -run '^$$' -bench '$(COMBENCH_PATTERN)' -benchmem -benchtime 20x -count=5 . > bench.out
	$(GO) run ./cmd/benchjson -o BENCH_community.json -require '$(COMBENCH_REQUIRE)' -ratio '$(COMBENCH_RATIO)' < bench.out
	$(GO) test -run '^$$' -bench '$(DESBENCH_PATTERN)' -benchtime 1x -count=5 . > bench.out
	$(GO) run ./cmd/benchjson -o BENCH_des.json -require '$(DESBENCH_REQUIRE)' -ratio '$(DESBENCH_RATIO)' < bench.out
	$(GO) test -run '^$$' -bench '$(GOSSIPBENCH_PATTERN)' -benchtime 1x -count=5 . > bench.out
	$(GO) run ./cmd/benchjson -o BENCH_gossip.json -require '$(GOSSIPBENCH_REQUIRE)' -ratio '$(GOSSIPBENCH_RATIO)' < bench.out
	$(GO) test -run '^$$' -bench '$(DTNBENCH_PATTERN)' -benchtime 1x -count=5 . > bench.out
	$(GO) run ./cmd/benchjson -o BENCH_dtn.json -require '$(DTNBENCH_REQUIRE)' -ratio '$(DTNBENCH_RATIO)' < bench.out
	rm -f bench.out

# bench-oracles runs the perfbench workloads' oracles at toy size under
# the race detector. perfbench/ is a module of its own, so the root's
# ./... never reaches it.
bench-oracles:
	cd perfbench && $(GO) test -race ./...

# bench-smoke is the CI guard: every benchmark still compiles and runs
# (one iteration), and none of the required names has disappeared. No
# timing assertions — 1x iterations on a loaded CI box mean nothing.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime 1x . > bench-smoke.out
	$(GO) run ./cmd/benchjson -o /dev/null -require '$(BENCH_REQUIRE)' < bench-smoke.out
	$(GO) test -run '^$$' -bench '$(COMBENCH_PATTERN)' -benchmem -benchtime 1x . > bench-smoke.out
	$(GO) run ./cmd/benchjson -o /dev/null -require '$(COMBENCH_REQUIRE)' < bench-smoke.out
	$(GO) test -run '^$$' -short -bench '$(DESBENCH_PATTERN)' -benchtime 1x . > bench-smoke.out
	$(GO) run ./cmd/benchjson -o /dev/null -require '$(DESBENCH_REQUIRE_SMOKE)' < bench-smoke.out
	$(GO) test -run '^$$' -short -bench '$(GOSSIPBENCH_PATTERN)' -benchtime 1x . > bench-smoke.out
	$(GO) run ./cmd/benchjson -o /dev/null -require '$(GOSSIPBENCH_REQUIRE_SMOKE)' < bench-smoke.out
	$(GO) test -run '^$$' -short -bench '$(DTNBENCH_PATTERN)' -benchtime 1x . > bench-smoke.out
	$(GO) run ./cmd/benchjson -o /dev/null -require '$(DTNBENCH_REQUIRE_SMOKE)' < bench-smoke.out
	rm -f bench-smoke.out
