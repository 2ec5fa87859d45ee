GO ?= go
# Benchmark snapshot index: bump per PR so the perf trajectory accumulates
# (BENCH_1.json, BENCH_2.json, …).
BENCH_N ?= 16

.PHONY: all build test vet race bench benchjson benchcheck chaos experiments perfbench-check clean

all: build test vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-check the packages that fan work out across goroutines.
race:
	$(GO) test -race ./internal/par/ ./internal/graph/ ./internal/combinat/ ./internal/dist/ ./internal/obs/ .

# The chaos suite under the race detector: fault injection, cancellation,
# budget trips, leak checks, the hardened service, the distributed sweep
# tier (worker crashes, stragglers, corrupt responses, Byzantine liars with
# quorum cross-validation + quarantine + degraded serving, coordinator
# kill/restart recovery) and the crash-resume matrix (kill-and-restart over
# solver/homology/dist checkpoints, SIGKILL torn-write atomicity, and the
# loader hardening of all three durable files: memo snapshots, checkpoints
# and the shard journal), each test
# individually time-boxed so a stuck drain fails fast instead of hanging CI.
# The Byzantine matrix then reruns ten times, so a half-open probe that lets
# a liar back in cannot hide as an occasional flake.
chaos:
	$(GO) test -race -timeout 10m -run 'Chaos|Fault|Cancel|Leak|Budget|Serve|Flight|Snapshot|Deadline|Dist|Ring|Journal|Race|Obs|Trace|Metrics|Log|Checkpoint|Resume|Kill|Durable|Byzantine|Lie|Quarantine|Verify|Degrade|Duplicate|PickWorker|ProbeInterval' \
		./internal/faultinject/ ./internal/par/ ./internal/protocol/ \
		./internal/model/ ./internal/homology/ ./internal/memo/ \
		./internal/cli/ ./internal/serve/ ./internal/dist/ ./internal/obs/ \
		./internal/checkpoint/
	$(GO) test -race -timeout 10m -count=10 -run 'TestDistByzantineChaosMatrix' ./internal/dist/

# Smoke-run every benchmark once (also re-validates the E1–E17 tables).
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Record the machine-readable perf snapshot for this PR.
benchjson:
	$(GO) run ./cmd/ksetbench -out BENCH_$(BENCH_N).json

# Re-measure and fail when any tracked benchmark regresses >25% against the
# committed snapshot (the CI regression gate, runnable locally).
benchcheck:
	$(GO) run ./cmd/ksetbench -out BENCH_ci.json -against BENCH_$(BENCH_N).json

experiments:
	$(GO) run ./cmd/ksetexperiments

# perfbench/ is a separate Go module, so the root build and test targets
# never compile it; vet and test it on its own so an API change in the
# root module cannot break the benchmark unnoticed.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

clean:
	rm -f BENCH_*.json
