GO ?= go
BENCH_OUT ?= BENCH_10.json

.PHONY: all build test race bench bench-smoke bench-json bench-json-smoke alloc-guard fault-matrix load-smoke shard-smoke stream-smoke gate-smoke index-smoke perfbench-check fmt vet check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Short-mode race pass over the packages with concurrency stress tests.
race:
	$(GO) test -race -short ./internal/server ./internal/wire ./internal/workstation ./internal/faults ./internal/sched ./internal/vclock ./internal/cluster ./internal/gateway ./internal/index

# Resilience suite: fault injection, the mux protocol under faults, session
# resync/degraded serving, and the E-FAULT experiment.
fault-matrix:
	$(GO) test ./internal/faults -run . -count=1
	$(GO) test ./internal/workstation -run 'Resync|Stale|ContextCancelled' -count=1
	$(GO) test . -run 'EFault' -count=1

bench:
	$(GO) test -bench=. -benchmem .

# One-iteration pass over the pipeline benchmarks: catches bit-rot in the
# wire mux and prefetch benchmark harnesses without paying for a full run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'EPipe|Mux|Prefetch' -benchtime=1x . ./internal/wire ./internal/workstation

# Benchmark-regression report: run the E-ALLOC hot-path benchmarks plus
# the E-LOAD mass-session run, the E-SHARD scaling sweep, the E-STREAM
# streaming-delivery experiment and the E-GATE gateway run, and write the
# combined report to $(BENCH_OUT) (committed per PR).
bench-json:
	$(GO) run ./cmd/minos-bench -load -shard -stream -gate -index -out $(BENCH_OUT)

# E-LOAD smoke: ~100 sessions x 200 steps through the load harness with a
# p99 latency bound. Cheap enough to gate every `make check`.
load-smoke:
	$(GO) test -run 'ELoadSmoke' -count=1 .

# E-SHARD smoke: a 2-shard mini run under vclock with a mid-run primary
# failure — proves partitioned routing and replica failover on every check.
shard-smoke:
	$(GO) test -run 'EShardSmoke' -count=1 .

# E-STREAM smoke: a short spoken part streamed over the mux on the modelled
# link — first audio must beat the batch full download by >= 2x, zero
# underruns, and a mid-stream primary kill must resume on the replica.
stream-smoke:
	$(GO) test -run 'EStreamSmoke' -count=1 .

# E-GATE smoke: a small gateway run (16 sessions under vclock, exact step
# count asserted) plus the end-to-end HTTP browse with its /metrics scrape
# assertions.
gate-smoke:
	$(GO) test -run 'EGateSmoke' -count=1 .
	$(GO) test -run 'GatewayBrowseHTTP' -count=1 ./internal/gateway

# E-INDEX smoke: the segmented content index vs a brute-force scan of the
# corpus definition, incremental (seal+merge) vs bulk build equivalence,
# and the experiment invariants (bit-identical segments, planner == naive,
# ~0 allocs per warm query) at 30k docs.
index-smoke:
	$(GO) test -run 'EIndexSmoke' -count=1 .

# One-iteration harness smoke: proves minos-bench still runs and parses
# without overwriting the committed report.
bench-json-smoke:
	$(GO) run ./cmd/minos-bench -benchtime 1x -out - >/dev/null

# Steady-state allocation guards (testing.AllocsPerRun); skipped under
# -race, where the runtime deliberately drops sync.Pool entries.
alloc-guard:
	$(GO) test -run 'Alloc' -count=1 ./internal/image ./internal/voice ./internal/server ./internal/wire ./internal/cluster ./internal/gateway ./internal/index

# The benchmark is its own module, so the root `go test ./...` never
# compiles it: vet and test it here, so deleting an API it uses fails the
# check.
perfbench-check:
	cd perfbench && GOFLAGS=-buildvcs=false $(GO) vet ./... && $(GO) test ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

check: fmt vet build test race fault-matrix bench-smoke alloc-guard bench-json-smoke load-smoke shard-smoke stream-smoke gate-smoke index-smoke perfbench-check
