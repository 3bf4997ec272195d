# Convenience targets for the checks CI (and pre-commit hands) should
# run. `make ci` is the full gate; the individual targets exist so a
# quick edit-compile loop doesn't have to pay for the race campaigns.

GO ?= go

# The golden campaign: the spec behind testdata/golden_4x4_seed3.json,
# the CI shard matrix and `make shardcheck`. Keep all four in sync.
GOLDEN_FLAGS = -mesh 4x4 -vcs 4 -rate 0.12 -seed 3 -inject 300 -post 400 \
	-drain 5000 -epoch 400 -faults 96

# Coverage floor for `make cover` (percent of statements across
# ./internal/...). Raise it when coverage rises; never lower it to
# merge — add tests instead.
COVER_FLOOR = 85.0

.PHONY: all build fmt vet lint test race cover e2e bench benchcheck ci golden shardcheck exact-identity build386

all: ci

build:
	$(GO) build ./...

# fmt fails (listing the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint = formatting + vet, plus staticcheck and govulncheck when they
# are installed (the CI lint job installs both; the local gate must
# not depend on a download).
lint: fmt vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (go vet ran)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipped"; fi

# test also vets and race-checks the telemetry packages — they are
# quick under -race, unlike the full campaign suite (see race).
test: vet
	$(GO) test ./...
	$(GO) test -race ./internal/metrics ./internal/trace

# The campaign, simulator, metrics, trace and server packages are the
# concurrent ones (worker pools forking clones, lock-free instrument
# updates, NDJSON writers, the daemon's queue/worker/event fan-out);
# run them under the race detector, plus the step-loop packages (core,
# router, soa) whose shared-array state campaign workers mutate in
# parallel. The campaign package takes several minutes race-enabled.
race:
	$(GO) test -race ./internal/campaign ./internal/sim ./internal/metrics \
		./internal/trace ./internal/server ./internal/obs ./internal/coordinator \
		./internal/core ./internal/router ./internal/soa

# cover enforces the coverage floor over ./internal/... and leaves the
# profile in cover.out for inspection (`go tool cover -html=cover.out`).
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./internal/...
	@total="$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}')"; \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { if (t+0 < f+0) exit 1 }' || \
		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# e2e builds the real nocalertd binary, SIGKILLs it mid-campaign over
# HTTP, restarts it, and requires the resumed job's report to be
# byte-identical to an uninterrupted run's (see e2e/restart_test.go).
e2e:
	$(GO) test -tags e2e ./e2e -v -timeout 20m

# e2e-dist is the distributed gate alone: a coordinator dispatching the
# golden campaign to a local 3-worker fleet, one worker SIGKILLed
# mid-flight, merged report byte-identical to the unsharded run and the
# committed fixture (see e2e/distributed_test.go).
e2e-dist:
	$(GO) test -tags e2e ./e2e -run TestDistributed -v -timeout 20m

# Campaign throughput baseline (faults/sec, ns/fault, allocs/fault),
# plus timestamped records appended to BENCH_4x4.json so the perf
# trajectory accumulates across revisions (the file is created on
# first run — a fresh clone works): one serial row ("campaign"), one
# with the worker pool at GOMAXPROCS ("campaign-parallel"), and one
# serial row with span tracing and the flight recorder armed
# ("campaign-traced") — the committed evidence that observability costs
# <5% throughput. Format: see EXPERIMENTS.md.
BENCH_FLAGS = -mesh 4x4 -rate 0.12 -inject 300 -post 400 \
	-drain 5000 -epoch 400 -faults 160 -seed 3 -fig none -progress=false

# The 8x8 throughput row (BENCH_8x8.json): the paper-scale mesh at its
# 0.05 injection rate, serial, so the trajectory tracks algorithmic
# wins (forking, fast-forward, reconvergence, frontier stepping) rather
# than core count. Rows are only comparable within one engine (the
# "engine" field in the record: frontier for the default fast engine,
# exact for -exact).
BENCH_8X8_FLAGS = -mesh 8x8 -rate 0.05 -inject 300 -post 500 \
	-drain 10000 -epoch 1500 -faults 64 -seed 3 -fig none -progress=false

# The gated 16x16 throughput row (BENCH_16x16.json): a small universe
# on the 16×16 mesh, where the cone-of-influence win is largest. Run
# via `make bench BENCH_16X16=1` (or the bench CI job, which sets it).
BENCH_16X16_FLAGS = -mesh 16x16 -rate 0.02 -inject 300 -post 500 \
	-drain 10000 -epoch 1500 -faults 32 -seed 3 -fig none -progress=false

bench:
	$(GO) test -run '^$$' -bench BenchmarkCampaignRun -benchtime 3x .
	$(GO) run ./cmd/faultcampaign $(BENCH_FLAGS) -workers 1 \
		-benchjson BENCH_4x4.json
	$(GO) run ./cmd/faultcampaign $(BENCH_FLAGS) -workers 0 \
		-benchname campaign-parallel -benchjson BENCH_4x4.json
	$(GO) run ./cmd/faultcampaign $(BENCH_FLAGS) -workers 1 \
		-trace-spans .bench-spans.ndjson -flight-recorder .bench-flight.ndjson \
		-benchname campaign-traced -benchjson BENCH_4x4.json
	rm -f .bench-spans.ndjson .bench-flight.ndjson
	$(GO) run ./cmd/faultcampaign $(BENCH_8X8_FLAGS) -workers 1 \
		-benchname campaign-8x8-frontier -benchjson BENCH_8x8.json
	@if [ -n "$(BENCH_16X16)" ]; then \
		$(GO) run ./cmd/faultcampaign $(BENCH_16X16_FLAGS) -workers 1 \
			-benchname campaign-16x16-frontier -benchjson BENCH_16x16.json; \
	else echo "16x16 row skipped (set BENCH_16X16=1 to run)"; fi

# benchcheck is the perf regression gate: re-run the serial benchmark
# campaigns and fail if their faults/sec land >30% below the latest
# committed like-engined row in BENCH_4x4.json (resp. the
# campaign-8x8-frontier row in BENCH_8x8.json). Both gate the default
# fast engine. Nothing is appended.
benchcheck:
	$(GO) run ./cmd/faultcampaign $(BENCH_FLAGS) -workers 1 \
		-benchbaseline BENCH_4x4.json
	$(GO) run ./cmd/faultcampaign $(BENCH_8X8_FLAGS) -workers 1 \
		-benchname campaign-8x8-frontier -benchbaseline BENCH_8x8.json

# golden regenerates the committed fixtures — the 4×4, 8×8 and 16×16
# record fixtures and the full JSON report fixtures the exact-identity
# gate compares against — after an intentional behaviour change; commit
# the diff it produces.
golden:
	$(GO) test ./internal/campaign -run TestGoldenFixture -update-golden -v
	$(GO) run ./cmd/faultcampaign $(GOLDEN_FLAGS) -fig none -progress=false \
		-json testdata/report_4x4_seed3.json
	$(GO) run ./cmd/faultcampaign $(BENCH_8X8_FLAGS) \
		-json testdata/report_8x8_seed3.json

# The scale-out pinned campaign behind testdata/golden_16x16_seed3.json
# (campaign.Golden16x16Spec).
GOLDEN_16X16_FLAGS = -mesh 16x16 -vcs 4 -rate 0.02 -seed 3 -inject 300 \
	-post 500 -drain 10000 -epoch 1500 -faults 32

# exact-identity proves the fast engine exact: the golden 4×4 and
# paper-scale 8×8 campaigns run once on the default fast engine and once
# with -exact (plain full simulation: no fork, fast path, reconvergence,
# frontier or fast-forward, reference sweep), and all four JSON reports
# must be byte-identical to each other and to the committed fixtures.
# At 16×16 the fast run merges against the committed record fixture and
# the exact run's report must be byte-identical to the fast one's. (The
# record fixture also pins each run's fast_path exit flag, which the
# exact engine never sets, so the exact run is held to it through the
# fast run.) Any shortcut that changes a result fails a cmp or the merge
# gate. CI only: it takes about a minute.
exact-identity:
	rm -rf .exactid && mkdir -p .exactid
	$(GO) build -o .exactid/fc ./cmd/faultcampaign
	.exactid/fc $(GOLDEN_FLAGS) -fig none -progress=false -json .exactid/4x4-fast.json
	.exactid/fc $(GOLDEN_FLAGS) -fig none -progress=false -exact -json .exactid/4x4-exact.json
	cmp .exactid/4x4-fast.json .exactid/4x4-exact.json
	cmp .exactid/4x4-fast.json testdata/report_4x4_seed3.json
	.exactid/fc $(BENCH_8X8_FLAGS) -json .exactid/8x8-fast.json
	.exactid/fc $(BENCH_8X8_FLAGS) -exact -json .exactid/8x8-exact.json
	cmp .exactid/8x8-fast.json .exactid/8x8-exact.json
	cmp .exactid/8x8-fast.json testdata/report_8x8_seed3.json
	.exactid/fc $(GOLDEN_16X16_FLAGS) -progress=false \
		-shard 0/1 -checkpoint .exactid/16x16-fast.ndjson
	.exactid/fc merge -fig none -golden testdata/golden_16x16_seed3.json \
		-out .exactid/16x16-fast.json .exactid/16x16-fast.ndjson
	.exactid/fc $(GOLDEN_16X16_FLAGS) -fig none -progress=false -exact \
		-json .exactid/16x16-exact.json
	cmp .exactid/16x16-fast.json .exactid/16x16-exact.json
	rm -rf .exactid

# build386 is a build-only cross-compile of the whole module for a
# 32-bit target: the SoA state uses explicitly sized element types
# (int32/uint32/uint64), and this catches any accidental dependence on
# 64-bit int.
build386:
	GOARCH=386 $(GO) build ./...

# shardcheck reproduces the CI merge gate locally: run the golden
# campaign as 4 independent shards, merge the checkpoints, and require
# the result to be bit-identical to the committed fixture.
shardcheck:
	rm -rf .shardcheck && mkdir -p .shardcheck
	for i in 0 1 2 3; do \
		$(GO) run ./cmd/faultcampaign $(GOLDEN_FLAGS) -progress=false \
			-shard $$i/4 -checkpoint .shardcheck/shard$$i.ndjson || exit 1; \
	done
	$(GO) run ./cmd/faultcampaign merge -fig none \
		-golden testdata/golden_4x4_seed3.json .shardcheck/shard*.ndjson
	rm -rf .shardcheck

ci: lint build test race cover
