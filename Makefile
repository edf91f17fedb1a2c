GO ?= go

.PHONY: build test race bench json chaos chaos-smoke chaos-reshard chaos-reshard-smoke chaos-disk chaos-disk-smoke scrub fuzz fuzz-smoke

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

# Deterministic fault-injection + crash campaigns, fixed seeds so
# failures replay exactly. Exits non-zero on any silent corruption /
# untyped error / lost acknowledged write. The -crash campaign kills the
# supervised Service at every write-path point across 1000 schedules,
# each run with both Device variants.
chaos:
	$(GO) run ./cmd/forksim -faults -seed 1 -fault-schedules 1000
	$(GO) run ./cmd/forksim -faults -fault-corruption -seed 2 -fault-schedules 1000 -fault-rate 0.006
	$(GO) run ./cmd/forksim -crash -seed 3 -crash-schedules 1000
	$(GO) run ./cmd/forksim -crash-shards -seed 4 -crash-schedules 1000 -shards 3

# Reduced-schedule campaign for CI smoke: same assertions, ~10% of the
# schedules.
chaos-smoke:
	$(GO) run ./cmd/forksim -faults -seed 1 -fault-schedules 100
	$(GO) run ./cmd/forksim -faults -fault-corruption -seed 2 -fault-schedules 100 -fault-rate 0.006
	$(GO) run ./cmd/forksim -crash -seed 3 -crash-schedules 100
	$(GO) run ./cmd/forksim -crash-shards -seed 4 -crash-schedules 100 -shards 3
	# Race-checked crash pass: every plain-medium Fork schedule runs the
	# pipelined engine (PipelineDepth 4), so mid-serve kills land inside
	# worker goroutines under the race detector.
	$(GO) run -race ./cmd/forksim -crash -seed 3 -crash-schedules 60

# Disk-medium crash campaign: every schedule runs over a real disk
# bucket store, so kills land inside frame writes (mid-bucket-write
# tears at random byte offsets) and scrub slices (mid-scrub). Reopening
# must detect every torn frame as a typed corruption and recover with
# zero lost acked writes.
chaos-disk:
	$(GO) run ./cmd/forksim -crash -disk -seed 3 -crash-schedules 1000

# Reduced-schedule variant for CI smoke.
chaos-disk-smoke:
	$(GO) run ./cmd/forksim -crash -disk -seed 3 -crash-schedules 100

# Offline scrub-and-repair demo: builds a disk-backed device, injects
# frame corruptions out-of-band, and verifies the scrub detects exactly
# the injected set (exit 1 on any miss). Point it at a real image with:
#   go run ./cmd/forksim -scrub -scrub-image buckets.oram [-scrub-key hex]
scrub:
	$(GO) run ./cmd/forksim -scrub -seed 9

# Mid-migration crash campaign: online splits (odd schedules merge
# back) under concurrent traffic, router kills at every migration phase
# (policy append, mid-stream, watermark advance, cutover commit,
# post-cutover truncate), full rebuild + resume from the surviving
# journals after each. Exits non-zero on any lost acked write or silent
# corruption.
chaos-reshard:
	$(GO) run ./cmd/forksim -crash-reshard -seed 5 -crash-schedules 1000 -shards 2 -add-shards 2

# Reduced-schedule variant for CI smoke (still covers every phase: the
# kill focus rotates with period 5).
chaos-reshard-smoke:
	$(GO) run ./cmd/forksim -crash-reshard -seed 5 -crash-schedules 100 -shards 2 -add-shards 2

# Coverage-guided fuzzing of the Device against a map oracle, with and
# without fault injection (see FuzzDeviceOps in fuzz_test.go).
fuzz:
	$(GO) test -fuzz FuzzDeviceOps -fuzztime 60s .

# Short fuzz pass for CI.
fuzz-smoke:
	$(GO) test -fuzz FuzzDeviceOps -fuzztime 30s .
