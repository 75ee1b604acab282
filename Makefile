GO ?= go
FUZZTIME ?= 20s

.PHONY: build test race vet bench bench-sweep sweep fuzz cover golden telemetry test-metrics-race snapshot-check farm-check fleet-bench serve-check serve-smoke policy-check resilience-check resilience-smoke tech-check scorecard reports-drift all

# Perf trajectory output of `make bench` (see EXPERIMENTS.md).
BENCH_OUT ?= BENCH_PR14.json

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Interval-kernel benchmark suite → $(BENCH_OUT): cache and stream
# microbenches plus the end-to-end interval kernel, with alloc counters.
# Pin reference numbers with BENCH_FLAGS='-baseline cache_access=24.5,...'.
bench:
	$(GO) run ./cmd/benchreport -out $(BENCH_OUT) $(BENCH_FLAGS)

# Serial-vs-pooled sweep benchmark (EXPERIMENTS.md records the measured
# speedup).
bench-sweep:
	$(GO) test ./cmd/cpmsweep/ -run '^$$' -bench BenchmarkPoolSweep -benchtime 3x

# Example sweep: Mix-1 budget curve on the pooled executor.
sweep: build
	$(GO) run ./cmd/cpmsweep -mix mix1 -budgets 0.5,0.6,0.7,0.8,0.9,0.95

# Fuzz smoke: run each native fuzz target briefly (seed corpora live in
# the packages' testdata/fuzz directories). Override with FUZZTIME=5m etc.
fuzz:
	$(GO) test ./internal/workload -fuzz FuzzParseMix -fuzztime $(FUZZTIME)
	$(GO) test ./internal/workload -fuzz FuzzStreamAddrs -fuzztime $(FUZZTIME)
	$(GO) test ./internal/control -fuzz FuzzRoots -fuzztime $(FUZZTIME)
	$(GO) test ./internal/snapshot -fuzz FuzzSnapshotDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -fuzz FuzzServeRequestDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/gpm -fuzz FuzzNewPolicyInvariants -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sweepd -fuzz FuzzCheckpointRestore -fuzztime $(FUZZTIME)

# Checkpoint/restore gate: codec round-trips, every layer's snapshot tests,
# the six-scenario resume-equivalence proof (snapshot mid-run, restore into a
# fresh process-equivalent chip, finish bit-identically against the pinned
# goldens), plus a short decoder fuzz smoke.
snapshot-check:
	$(GO) test ./internal/snapshot ./internal/pic ./internal/gpm
	$(GO) test ./internal/check -run 'TestGoldenSnapshotResumeEquivalence|TestSessionSnapshotRejections|TestFNV64a' -v
	$(GO) test ./internal/snapshot -fuzz FuzzSnapshotDecode -fuzztime 10s

# Farm equivalence gate (race-enabled): the batched shared-sampler path must
# reproduce every pinned golden digest — single-chip farms, the six-scenario
# shared-sampler farm, group splits, distinct-seed replicas, whole-fleet
# snapshot/restore mid-run — plus the sweep-level CSV byte-identity of
# every farm route against the pinned sweeps and the fleet metrics observer.
farm-check:
	$(GO) test -race ./internal/check -run 'TestFarm'
	$(GO) test -race ./internal/metrics -run 'TestFarmObserver'
	$(GO) test -race ./cmd/cpmsweep -run 'TestSweepFarm'

# Fleet throughput benchmark: chips/sec of the 64- and 1024-chip farms vs
# the aggregate-scalar reference (informational; `make bench` pins the
# numbers into $(BENCH_OUT)).
fleet-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkFleetFarm' -benchtime 20x .

# Simulation-service gate (race-enabled): golden-over-HTTP equivalence for
# all six pinned scenarios, the coalescing proof (N identical concurrent
# requests -> exactly one simulation), backpressure/drain semantics, farm
# batch admission, and the cpmserve CLI tests.
serve-check:
	$(GO) test -race ./internal/serve ./cmd/cpmserve

# Self-driven smoke of the daemon: 100 requests through a real listener
# cycling scenarios, seeds and both response modes, with the /metrics
# scrape on stdout (ci.yml archives it as serve-smoke.prom).
serve-smoke: build
	$(GO) run ./cmd/cpmserve -smoke 100 -workers 2

# Coverage for the control-critical packages; ci.yml enforces the floor.
cover:
	$(GO) test -coverprofile=cover.out ./internal/check ./internal/engine ./internal/control
	$(GO) tool cover -func=cover.out | tail -1

# Adaptive/predictive control gate (race-enabled): the estimator and policy
# unit suites, the three new pinned golden scenarios, their snapshot-resume
# bit-identity, and the sweep-level farm-vs-resilient CSV byte-identity for
# the -adaptive / mpc / cache routes.
policy-check:
	$(GO) test -race ./internal/pic ./internal/gpm
	$(GO) test -race ./internal/check -run 'TestGoldenScenarios$$/(adaptive-pic|mpc-gpm|cache-aware)|TestGoldenSnapshotResumeEquivalence'
	$(GO) test -race ./internal/core -run 'TestAdaptive|TestCacheSignals|TestSnapshotRoundTripCacheAdaptive'
	$(GO) test -race ./cmd/cpmsweep -run 'TestSweepAdaptiveAndPredictiveRoutes'

# Crash-safety gate (race-enabled): pool panic containment, the sweepd
# coordinator/checkpoint/kill-plan unit suite, the nine-scenario golden
# kill-equivalence proof (a worker kill at EVERY interval boundary, digests
# still bit-identical to the unkilled goldens), the farm mid-round snapshot
# guard, the resilient-vs-default sweep CSV byte-identity, and a short
# migration-path fuzz smoke (corrupt checkpoints must error, never resume
# divergently).
resilience-check:
	$(GO) test -race ./internal/sweepd
	$(GO) test -race ./internal/engine -run 'TestPool'
	$(GO) test -race ./internal/farm -run 'TestFarmSnapshot'
	$(GO) test -race ./internal/check -run 'TestResilient'
	$(GO) test -race ./cmd/cpmsweep -run 'TestResilient|TestParseSweepCLIResilient'
	$(GO) test ./internal/sweepd -fuzz FuzzCheckpointRestore -fuzztime 10s

# Technology/heterogeneity gate (race-enabled): the tech-scaling property
# suite and per-island model plumbing, the two new pinned golden scenarios
# (hetero-biglittle, tech-16nm) through the scalar, farm, snapshot-resume
# and serve-over-HTTP routes, plus the per-island planner/observer audit
# regressions and a short chip-snapshot v3 fuzz smoke.
tech-check:
	$(GO) test -race ./internal/power ./internal/uarch ./internal/maxbips
	$(GO) test -race ./internal/sim -run 'TestHeterogeneous|TestTech|TestIslandClasses|TestSnapshotRejectsIslandIdentityMismatch'
	$(GO) test -race ./internal/check -run 'TestGoldenScenarios$$/(hetero-biglittle|tech-16nm)|TestGoldenSnapshotResumeEquivalence/(hetero-biglittle|tech-16nm)|TestFarmSingleChipGolden/(hetero-biglittle|tech-16nm)|TestFarmSharedSamplerGolden'
	$(GO) test -race ./internal/serve -run 'TestGoldenOverHTTP'
	$(GO) test -race ./internal/engine -run 'TestStaticPredictionTablePerIsland|TestStaticPlannerHeterogeneous'
	$(GO) test -race ./internal/metrics -run 'TestResidencyCardinalityPerIsland'
	$(GO) test -race ./internal/experiments -run 'TestQuantumWSinglePointTable'
	$(GO) test ./internal/sim -fuzz FuzzChipSnapshotV3Restore -fuzztime 10s

# Informational resilience report: a small resilient sweep with kills
# injected every 3 intervals; stderr carries the checkpoint sizes, kill and
# migration counts (ci.yml archives it as resilience-report.txt).
resilience-smoke: build
	$(GO) run ./cmd/cpmsweep -resilient -kill-every 3 -ckpt-every 5 -mix mix1 -budgets 0.7,0.8,0.9 -warm 2 -epochs 4

# Adaptive/predictive policy scorecard (tracking error, settling time,
# BIPS/W vs the fixed-gain baseline on two mixes); CSV series land in
# scorecard-csv/ (ci.yml uploads them as an informational artifact).
scorecard: build
	$(GO) run ./cmd/cpmsim -csv scorecard-csv run scorecard

# Checked-in reports drift gate: regenerate reports_full.txt from the code
# and fail if it differs from the committed file (progress goes to stderr).
reports-drift:
	$(GO) run ./cmd/cpmsim run all > reports_full.txt
	git diff --exit-code reports_full.txt

# Regenerate the golden traces after an intentional behaviour change.
golden:
	$(GO) test ./internal/check -run TestGoldenScenarios -update

# Race-enabled metrics suite: the registry/observer tests plus the pooled
# sweep with a concurrent scraper (cmd/cpmsweep TestSweepConcurrentScrape).
test-metrics-race:
	$(GO) test -race ./internal/metrics ./internal/diag ./cmd/cpmsweep

# Telemetry of the golden cpm-default scenario in both exporter formats
# (ci.yml uploads these as an informational artifact).
telemetry:
	$(GO) run ./cmd/cpmsim -metrics telemetry.prom scenario cpm-default
	$(GO) run ./cmd/cpmsim -metrics telemetry.json scenario cpm-default
