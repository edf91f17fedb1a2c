GO ?= go

.PHONY: build test race bench json chaos chaos-smoke scrub fuzz fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass: the whole root package (Service concurrency, the
# admission queue, the crash campaign) plus every internal package.
race:
	$(GO) test -race . ./internal/...

bench:
	$(GO) test -bench BenchmarkAccessAllocs -benchtime 1000x ./internal/fork ./internal/pathoram

# Regenerate the perf-trajectory record (BENCH_<date>.json).
json:
	$(GO) run ./cmd/orambench -mixes 2 -requests 800 -json

# Crash campaigns over every topology (a bare Device under storage
# faults, one supervised Service, a sharded fleet, an online reshard),
# fixed seed so failures replay exactly. Every schedule decodes its index
# into one combination of the topology's dimensions (variant, medium,
# decorator, run loop, pipeline depth, fault menu, kill focus), so 1000
# schedules sweep every combination many times over. Exits non-zero on
# any lost acknowledged write, silent corruption or untyped failure.
chaos:
	$(GO) run ./cmd/forksim -campaign all -seed 1 -schedules 1000

# Reduced sweep for CI smoke: every combination at least once.
chaos-smoke:
	$(GO) run ./cmd/forksim -campaign all -seed 1 -schedules 100
	# Race-checked pass: the single topology's pipelined schedules land
	# mid-serve kills inside worker goroutines under the race detector.
	$(GO) run -race ./cmd/forksim -campaign single -seed 3 -schedules 72

# Offline scrub-and-repair demo: builds a disk-backed device, injects
# frame corruptions out-of-band, and verifies the scrub detects exactly
# the injected set (exit 1 on any miss). Point it at a real image with:
#   go run ./cmd/forksim -scrub -scrub-image buckets.oram [-scrub-key hex]
scrub:
	$(GO) run ./cmd/forksim -scrub -seed 9

# Coverage-guided fuzzing of the Device against a map oracle, with and
# without fault injection (see FuzzDeviceOps in fuzz_test.go).
fuzz:
	$(GO) test -fuzz FuzzDeviceOps -fuzztime 60s .

# Short fuzz pass for CI.
fuzz-smoke:
	$(GO) test -fuzz FuzzDeviceOps -fuzztime 30s .
