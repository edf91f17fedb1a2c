GO ?= go

.PHONY: build test race bench bench-svc bench-pipeline bench-pipeline-mc bench-xw bench-reshard bench-tiers json chaos chaos-smoke chaos-reshard chaos-reshard-smoke chaos-disk chaos-disk-smoke scrub fuzz fuzz-smoke

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

# Service group-commit benchmark: concurrent clients over a file-backed
# journal, coalesced vs. one-sync-per-op (smoke-sized for CI), single
# then sharded.
bench-svc:
	$(GO) run ./cmd/orambench -svc -svc-ops 1200
	$(GO) run ./cmd/orambench -svc -svc-ops 1200 -shards 4

# Staged-pipeline depth sweep: the same grouped write storm at
# PipelineDepth 1, 2, 4 with per-stage stall telemetry. Depth 1 is the
# serial baseline; run on >=2 cores for the overlap to show as speedup.
bench-pipeline:
	$(GO) run ./cmd/orambench -pipeline-sweep -svc-ops 1200

# Multi-core pipeline baseline: the same grouped write storm across a
# gomaxprocs × pipeline-depth grid over a simulated remote tier (fixed
# per-bulk-call RTT), every entry stamped with the GOMAXPROCS it
# actually ran under. -require-mc exits nonzero unless a GOMAXPROCS>=4
# pipelined cell clears 1.3x over that scheduler width's own depth-1
# serial baseline, so a sweep produced at GOMAXPROCS=1 can never claim a
# multi-core speedup.
bench-pipeline-mc:
	$(GO) run ./cmd/orambench -mc-sweep -svc-ops 1200 -require-mc

# Cross-window run-loop comparison: the same grouped write storm at
# each pipeline depth, once under the window-barriered Service loop and
# once under the committer/applier loop with overlapped group fsync,
# over a simulated remote tier. -require-mc here asserts at least one
# cross-window run beats its barriered twin (svc_xw_* fields in the
# -json record).
bench-xw:
	$(GO) run ./cmd/orambench -xw -svc-ops 1200 -gomaxprocs 4 -require-mc

# Online reshard benchmark: one timed 2->4 split over file-backed
# journals with concurrent client writers riding the dual-routed front
# door (svc_reshard_* fields in the -json record).
bench-reshard:
	$(GO) run ./cmd/orambench -reshard
	$(GO) run ./cmd/orambench -reshard -new-shards 3

# Storage-tier comparison: the same concurrent workload through mem,
# disk, disk+RAM-tier, simulated-remote, and remote+tier backends
# (svc_disk_* / svc_remote_* fields in the -json record).
bench-tiers:
	$(GO) run ./cmd/orambench -tiers -tier-ops 2000

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
