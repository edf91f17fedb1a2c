GO ?= go

.PHONY: build test race bench json paper chaos chaos-smoke scrub fuzz fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass: the whole root package (Service concurrency, the
# admission queue, the crash campaign) plus every internal package but
# the paper harness's two. internal/bench runs concurrently only through
# par.Map, which its TestParallel tests drive, so only they run under
# the detector; neither internal/sim's code nor its tests start a
# goroutine, so it is left out.
race:
	$(GO) test -race . $(shell $(GO) list ./internal/... | grep -v -e '/internal/bench$$' -e '/internal/sim$$')
	$(GO) test -race -run TestParallel ./internal/bench

# Allocation counts of one access, then the hot-path benchmarks: bucket
# encoding, one refill's eviction, a bulk path read, a 32-op Batch at
# perfbench's batch-1k geometry, and the same Batch through a Service
# with a file journal, fsync included (CI runs the latter five once
# each).
bench:
	$(GO) test -bench BenchmarkAccessAllocs -benchtime 1000x ./internal/fork ./internal/pathoram
	$(GO) test -run '^$$' -bench 'Benchmark(EncodeBucket|EvictPath|MemReadBuckets|DeviceBatch|ServiceFileJournal)$$' -benchmem \
		./internal/block ./internal/stash ./internal/storage .

# Regenerate the perf-trajectory record (BENCH_<date>.json).
json:
	$(GO) run ./cmd/orambench -mixes 2 -requests 800 -json

# Rerun every paper experiment at the default scale (seed 1, ~4 min on
# 2 vCPUs) and diff the tables against the committed
# experiments_raw.txt, ignoring the run-time and record-file lines.
# Empty output means no table moved. A change that moves one
# regenerates the file (go run ./cmd/orambench -seed 1 >
# experiments_raw.txt) and says in EXPERIMENTS.md which paper claim
# moved.
paper:
	$(GO) run ./cmd/orambench -seed 1 | diff -I '^done in ' -I '^wrote ' experiments_raw.txt -

# Crash campaigns over every topology (a bare Device under storage
# faults, one supervised Service, a sharded fleet, an online reshard),
# fixed seed so failures replay exactly. Every schedule decodes its index
# into one combination of the topology's dimensions (variant, medium,
# decorator, fault menu, kill focus), so 1000 schedules sweep every
# combination many times over. Exits non-zero on any lost acknowledged
# write, silent corruption or untyped failure.
chaos:
	$(GO) run ./cmd/forksim -campaign all -seed 1 -schedules 1000

# Reduced sweep for CI smoke: every combination at least once.
chaos-smoke:
	$(GO) run ./cmd/forksim -campaign all -seed 1 -schedules 100
	# Race-checked pass, two per single combination: clients race the
	# run loop, and the run loop consults the kill plan.
	$(GO) run -race ./cmd/forksim -campaign single -seed 3 -schedules 36

# Offline scrub-and-repair demo: builds a disk-backed device, injects
# frame corruptions out-of-band, and verifies the scrub detects exactly
# the injected set (exit 1 on any miss). Point it at a real image with:
#   go run ./cmd/forksim -scrub -scrub-image buckets.oram [-scrub-key hex]
scrub:
	$(GO) run ./cmd/forksim -scrub -seed 9

# Coverage-guided fuzzing of the Device against a map oracle, with and
# without fault injection (see FuzzDeviceOps and FuzzDeviceBatchOps in
# fuzz_test.go).
fuzz:
	$(GO) test -fuzz FuzzDeviceOps -fuzztime 60s .
	$(GO) test -fuzz FuzzDeviceBatchOps -fuzztime 60s .

# Short fuzz pass for CI.
fuzz-smoke:
	$(GO) test -fuzz FuzzDeviceOps -fuzztime 30s .
	$(GO) test -fuzz FuzzDeviceBatchOps -fuzztime 30s .
