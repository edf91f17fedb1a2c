// Command orambench regenerates the paper's evaluation: every figure of
// §5 plus the design-choice ablations, printed as text tables.
//
// Examples:
//
//	orambench                      # all experiments at reduced scale
//	orambench -experiment fig12    # one figure
//	orambench -mixes 4 -requests 1500   # faster sweep
//	orambench -parallel 4          # four simulations in flight
//	orambench -json                # also write BENCH_<date>.json
//	orambench -paper               # Table 1 geometry (slow, memory-hungry)
//	orambench -svc                 # only the Service group-commit bench
//	orambench -svc -shards 8 -json # sharded fleet bench, recorded to json
//	orambench -svc -pipeline-depth 4    # pipelined device under the svc bench
//	orambench -pipeline-sweep -json     # depth sweep (1,2,4) comparison table
//	orambench -mc-sweep -json           # gomaxprocs × depth baseline
//	orambench -mc-sweep -require-mc     # fail unless GOMAXPROCS>=4 hits 1.3x
//	orambench -xw -json                 # cross-window vs barriered run loop per depth
//	orambench -xw -require-mc           # fail unless cross-window beats its barriered twin
//	orambench -reshard -json       # online reshard under concurrent writers
//	orambench -gomaxprocs 8        # pin the Go scheduler width for the run
//	orambench -cpuprofile cpu.out  # profile the run for go tool pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	forkoram "forkoram"
	"forkoram/internal/prof"
)

// benchReport is the perf-trajectory record -json writes: enough to
// compare harness throughput and hot-path cost across commits. Every
// section a partial run might leave unmeasured carries omitempty, so
// writeReport can merge the day's runs instead of zeroing each other.
type benchReport struct {
	Date        string             `json:"date"`
	GoVersion   string             `json:"go_version"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Parallel    int                `json:"parallel,omitempty"`
	Experiments []experimentReport `json:"experiments,omitempty"`
	WallSeconds float64            `json:"wall_seconds"`
	SimRuns     uint64             `json:"sim_runs,omitempty"`
	RunsPerSec  float64            `json:"runs_per_sec,omitempty"`
	// Speedup is aggregate simulation busy time / wall time: the
	// effective parallelism the worker pool achieved.
	Speedup float64 `json:"speedup,omitempty"`
	// Fork-engine access-loop microbenchmark (see AccessLoopStats).
	AccessAllocsPerOp float64 `json:"access_allocs_per_op,omitempty"`
	AccessNSPerOp     float64 `json:"access_ns_per_op,omitempty"`
	// Supervised-recovery latency probe (see RecoveryLoopStats): full
	// heals per second, and journal records replayed per second while
	// healing.
	RecoverHealsPerSec     float64 `json:"recover_heals_per_sec,omitempty"`
	RecoverReplayOpsPerSec float64 `json:"recover_replay_ops_per_sec,omitempty"`
	// Service group-commit bench (see RunServiceBench): end-to-end write
	// throughput over file-backed journals with coalescing on vs. pinned
	// to one sync per op, plus latency percentiles and the dispatch-
	// window shape the coalescer achieved. SvcShards is the fleet width
	// the run used (1 = single supervised Service).
	SvcShards             int      `json:"svc_shards,omitempty"`
	SvcOpsPerSec          float64  `json:"svc_ops_per_sec,omitempty"`
	SvcBaselineOpsPerSec  float64  `json:"svc_baseline_ops_per_sec,omitempty"`
	SvcGroupCommitSpeedup float64  `json:"svc_group_commit_speedup,omitempty"`
	SvcP50LatencyNS       int64    `json:"svc_p50_latency_ns,omitempty"`
	SvcP99LatencyNS       int64    `json:"svc_p99_latency_ns,omitempty"`
	WALSyncsPerOp         float64  `json:"wal_syncs_per_op,omitempty"`
	WALSyncsPerOpBaseline float64  `json:"wal_syncs_per_op_baseline,omitempty"`
	SvcMeanGroupSize      float64  `json:"svc_mean_group_size,omitempty"`
	SvcGroupSizeHist      []uint64 `json:"svc_group_size_hist,omitempty"`
	// Staged intra-shard pipeline (see DeviceConfig.PipelineDepth and
	// RunPipelineSweep): the depth the headline svc_pipeline_* numbers
	// were measured at, its throughput and speedup over the depth-1
	// serial run, and the stage counters — windows run, paths prefetched,
	// refills written back, and per-stage stall time.
	SvcPipelineDepth           int     `json:"svc_pipeline_depth,omitempty"`
	SvcPipelineOpsPerSec       float64 `json:"svc_pipeline_ops_per_sec,omitempty"`
	SvcPipelineSpeedup         float64 `json:"svc_pipeline_speedup,omitempty"`
	SvcPipelineWindows         uint64  `json:"svc_pipeline_windows,omitempty"`
	SvcPipelinePrefetches      uint64  `json:"svc_pipeline_prefetches,omitempty"`
	SvcPipelineWritebacks      uint64  `json:"svc_pipeline_writebacks,omitempty"`
	SvcPipelineFetchWaitNS     uint64  `json:"svc_pipeline_fetch_wait_ns,omitempty"`
	SvcPipelineEvictWaitNS     uint64  `json:"svc_pipeline_evict_wait_ns,omitempty"`
	SvcPipelineWritebackWaitNS uint64  `json:"svc_pipeline_writeback_wait_ns,omitempty"`
	// SvcPipelineSweep holds the full per-depth table when -pipeline-sweep
	// ran (depth, throughput, latency, stall telemetry per entry).
	SvcPipelineSweep []forkoram.PipelineSweepRun `json:"svc_pipeline_sweep,omitempty"`
	// Multi-core baseline (see RunMCSweep): the full gomaxprocs × depth
	// grid with per-entry GOMAXPROCS/NumCPU stamps so single-core runs
	// cannot masquerade as multi-core wins.
	SvcMCNumCPU          int                   `json:"svc_mc_num_cpu,omitempty"`
	SvcMCRemoteLatencyNS int64                 `json:"svc_mc_remote_latency_ns,omitempty"`
	SvcMCBestSpeedup     float64               `json:"svc_mc_best_speedup,omitempty"`
	SvcMCBestGomaxprocs  int                   `json:"svc_mc_best_gomaxprocs,omitempty"`
	SvcMCBestDepth       int                   `json:"svc_mc_best_depth,omitempty"`
	SvcMCRuns            []forkoram.MCSweepRun `json:"svc_mc_runs,omitempty"`
	// Cross-window run-loop sweep (see ServiceConfig.CrossWindow and
	// RunXWSweep): the same workload at each depth, once under the
	// window-barriered loop and once under the committer/applier loop
	// with overlapped group fsync. The headline ops/sec pair is the best
	// depth's; the full per-depth table (with per-entry GOMAXPROCS/NumCPU
	// stamps) rides in svc_xw_runs.
	SvcXWNumCPU           int                   `json:"svc_xw_num_cpu,omitempty"`
	SvcXWRemoteLatencyNS  int64                 `json:"svc_xw_remote_latency_ns,omitempty"`
	SvcXWBestSpeedup      float64               `json:"svc_xw_best_speedup,omitempty"`
	SvcXWBestGomaxprocs   int                   `json:"svc_xw_best_gomaxprocs,omitempty"`
	SvcXWBestDepth        int                   `json:"svc_xw_best_depth,omitempty"`
	SvcXWOpsPerSec        float64               `json:"svc_xw_ops_per_sec,omitempty"`
	SvcXWBarrierOpsPerSec float64               `json:"svc_xw_barrier_ops_per_sec,omitempty"`
	SvcXWRuns             []forkoram.XWSweepRun `json:"svc_xw_runs,omitempty"`
	// Online reshard bench (see RunReshardBench): one timed split over
	// file-backed journals — migration copy throughput, journaled chunk
	// count, summed write-barrier stall, and what concurrent client
	// writers still pushed through the dual-routed front door.
	SvcReshardFromShards      int     `json:"svc_reshard_from_shards,omitempty"`
	SvcReshardToShards        int     `json:"svc_reshard_to_shards,omitempty"`
	SvcReshardBlocks          uint64  `json:"svc_reshard_blocks,omitempty"`
	SvcReshardElapsedNS       int64   `json:"svc_reshard_elapsed_ns,omitempty"`
	SvcReshardBlocksPerSec    float64 `json:"svc_reshard_blocks_per_sec,omitempty"`
	SvcReshardChunks          uint64  `json:"svc_reshard_chunks,omitempty"`
	SvcReshardStallNS         uint64  `json:"svc_reshard_stall_ns,omitempty"`
	SvcReshardEpoch           uint64  `json:"svc_reshard_epoch,omitempty"`
	SvcReshardClientOpsPerSec float64 `json:"svc_reshard_client_ops_per_sec,omitempty"`
	SvcReshardClientP99NS     int64   `json:"svc_reshard_client_p99_ns,omitempty"`
	// Storage tier bench (see RunTierBench): the same mixed workload
	// over the in-memory medium, the durable disk store (with and
	// without the write-through RAM tier), and the simulated remote.
	// Slowdowns are relative to the mem run; the remote counters show
	// the injected transients the retry layer absorbed invisibly.
	SvcMemOpsPerSec      float64 `json:"svc_mem_ops_per_sec,omitempty"`
	SvcDiskOpsPerSec     float64 `json:"svc_disk_ops_per_sec,omitempty"`
	SvcDiskSlowdown      float64 `json:"svc_disk_slowdown,omitempty"`
	SvcDiskP99LatencyNS  int64   `json:"svc_disk_p99_latency_ns,omitempty"`
	SvcDiskTierOpsPerSec float64 `json:"svc_disk_tier_ops_per_sec,omitempty"`
	SvcDiskTierHitRate   float64 `json:"svc_disk_tier_hit_rate,omitempty"`
	SvcRemoteOpsPerSec   float64 `json:"svc_remote_ops_per_sec,omitempty"`
	SvcRemoteSlowdown    float64 `json:"svc_remote_slowdown,omitempty"`
	SvcRemoteFaults      uint64  `json:"svc_remote_faults,omitempty"`
	SvcRemoteRecovered   uint64  `json:"svc_remote_recovered,omitempty"`
	// SvcTierRuns holds the full per-configuration table.
	SvcTierRuns []forkoram.TierBenchRun `json:"svc_tier_runs,omitempty"`
}

type experimentReport struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	OK      bool    `json:"ok"`
	Error   string  `json:"error,omitempty"`
}

// fillSvc copies a Service bench result into the report's svc_* fields.
func (r *benchReport) fillSvc(res forkoram.ServiceBenchResult) {
	r.SvcShards = res.Shards
	r.SvcOpsPerSec = res.Grouped.OpsPerSec
	r.SvcBaselineOpsPerSec = res.Baseline.OpsPerSec
	r.SvcGroupCommitSpeedup = res.Speedup
	r.SvcP50LatencyNS = res.Grouped.P50Latency.Nanoseconds()
	r.SvcP99LatencyNS = res.Grouped.P99Latency.Nanoseconds()
	r.WALSyncsPerOp = res.Grouped.WALSyncsPerOp
	r.WALSyncsPerOpBaseline = res.Baseline.WALSyncsPerOp
	r.SvcMeanGroupSize = res.Grouped.MeanGroupSize
	r.SvcGroupSizeHist = append([]uint64(nil), res.Grouped.GroupSizes[:]...)
}

// fillPipelineRun copies one pipelined run's stage counters into the
// report's svc_pipeline_* fields.
func (r *benchReport) fillPipelineRun(depth int, run forkoram.ServiceBenchRun, speedup float64) {
	r.SvcPipelineDepth = depth
	r.SvcPipelineOpsPerSec = run.OpsPerSec
	r.SvcPipelineSpeedup = speedup
	p := run.Pipeline
	r.SvcPipelineWindows = p.Windows
	r.SvcPipelinePrefetches = p.Prefetches
	r.SvcPipelineWritebacks = p.Writebacks
	r.SvcPipelineFetchWaitNS = p.FetchWaitNs
	r.SvcPipelineEvictWaitNS = p.EvictWaitNs
	r.SvcPipelineWritebackWaitNS = p.WritebackWaitNs
}

// fillPipelineSweep records the whole sweep and promotes its deepest
// entry to the headline svc_pipeline_* fields.
func (r *benchReport) fillPipelineSweep(res forkoram.PipelineSweepResult) {
	r.SvcPipelineSweep = res.Depths
	if n := len(res.Depths); n > 0 {
		last := res.Depths[n-1]
		r.fillPipelineRun(last.Depth, last.Run, last.Speedup)
	}
}

// fillMCSweep records the multi-core sweep and promotes its best
// pipelined cell measured at GOMAXPROCS >= 4 to the headline
// svc_pipeline_* fields (the speedup is against that scheduler width's
// own depth-1 serial baseline).
func (r *benchReport) fillMCSweep(res forkoram.MCSweepResult) {
	r.SvcMCNumCPU = res.NumCPU
	r.SvcMCRemoteLatencyNS = res.RemoteLatencyNs
	r.SvcMCBestSpeedup = res.BestSpeedup
	r.SvcMCBestGomaxprocs = res.BestGomaxprocs
	r.SvcMCBestDepth = res.BestDepth
	r.SvcMCRuns = res.Runs
	var best *forkoram.MCSweepRun
	for i := range res.Runs {
		run := &res.Runs[i]
		if run.Depth < 2 || run.Gomaxprocs < 4 {
			continue
		}
		if best == nil || run.Speedup > best.Speedup {
			best = run
		}
	}
	if best != nil {
		r.fillPipelineRun(best.Depth, best.Run, best.Speedup)
	}
}

// fillXWSweep records the cross-window sweep and promotes its best
// depth's throughput pair to the headline svc_xw_* fields.
func (r *benchReport) fillXWSweep(res forkoram.XWSweepResult) {
	r.SvcXWNumCPU = res.NumCPU
	r.SvcXWRemoteLatencyNS = res.RemoteLatencyNs
	r.SvcXWBestSpeedup = res.BestSpeedup
	r.SvcXWBestGomaxprocs = res.BestGomaxprocs
	r.SvcXWBestDepth = res.BestDepth
	r.SvcXWRuns = res.Runs
	for i := range res.Runs {
		run := &res.Runs[i]
		if run.Depth == res.BestDepth {
			r.SvcXWOpsPerSec = run.CrossWindow.OpsPerSec
			r.SvcXWBarrierOpsPerSec = run.Barriered.OpsPerSec
			break
		}
	}
}

// requireXWPass extends the honesty guard to the cross-window sweep:
// at least one depth must show the cross-window run beating its own
// barriered twin — same depth, same journal medium, same payloads; the
// run loop is the only difference, so anything <= 1.0x means the
// overlapped group commit bought nothing.
func requireXWPass(res forkoram.XWSweepResult) error {
	for _, run := range res.Runs {
		if run.Speedup > 1.0 {
			return nil
		}
	}
	return fmt.Errorf("no cross-window run beat its barriered twin (best %.2fx at gomaxprocs=%d depth=%d)",
		res.BestSpeedup, res.BestGomaxprocs, res.BestDepth)
}

// requireMCPass enforces the multi-core honesty bar: some pipelined
// cell (depth >= 2) measured at GOMAXPROCS >= 4 must clear 1.3x over
// that scheduler width's depth-1 serial baseline. A sweep produced
// entirely at GOMAXPROCS=1 therefore cannot claim a multi-core
// speedup, whatever its numbers say.
func requireMCPass(res forkoram.MCSweepResult) error {
	for _, run := range res.Runs {
		if run.Depth >= 2 && run.Gomaxprocs >= 4 && run.Speedup >= 1.3 {
			return nil
		}
	}
	return fmt.Errorf("no pipelined cell at GOMAXPROCS >= 4 reached 1.3x (best %.2fx at gomaxprocs=%d depth=%d)",
		res.BestSpeedup, res.BestGomaxprocs, res.BestDepth)
}

// fillTiers copies a tier bench result into the report's svc_disk_* /
// svc_remote_* fields.
func (r *benchReport) fillTiers(res forkoram.TierBenchResult) {
	r.SvcTierRuns = res.Runs
	if run := res.Run("mem"); run != nil {
		r.SvcMemOpsPerSec = run.OpsPerSec
	}
	if run := res.Run("disk"); run != nil {
		r.SvcDiskOpsPerSec = run.OpsPerSec
		r.SvcDiskSlowdown = run.Slowdown
		r.SvcDiskP99LatencyNS = run.P99Latency.Nanoseconds()
	}
	if run := res.Run("disk+tier"); run != nil {
		r.SvcDiskTierOpsPerSec = run.OpsPerSec
		if tot := run.Storage.Tier.ReadHits + run.Storage.Tier.ReadMisses; tot > 0 {
			r.SvcDiskTierHitRate = float64(run.Storage.Tier.ReadHits) / float64(tot)
		}
	}
	if run := res.Run("remote"); run != nil {
		r.SvcRemoteOpsPerSec = run.OpsPerSec
		r.SvcRemoteSlowdown = run.Slowdown
		r.SvcRemoteFaults = run.Storage.Remote.TransientReads + run.Storage.Remote.TransientWrites
		r.SvcRemoteRecovered = run.Storage.Retry.Recovered
	}
}

// fillReshard copies a reshard bench result into the report's
// svc_reshard_* fields.
func (r *benchReport) fillReshard(res forkoram.ReshardBenchResult) {
	r.SvcReshardFromShards = res.FromShards
	r.SvcReshardToShards = res.ToShards
	r.SvcReshardBlocks = res.Blocks
	r.SvcReshardElapsedNS = res.Elapsed.Nanoseconds()
	r.SvcReshardBlocksPerSec = res.BlocksPerSec
	r.SvcReshardChunks = res.Chunks
	r.SvcReshardStallNS = res.StallNs
	r.SvcReshardEpoch = res.Epoch
	r.SvcReshardClientOpsPerSec = res.ClientOpsPerSec
	r.SvcReshardClientP99NS = res.ClientP99.Nanoseconds()
}

// writeReport writes the BENCH_<date>.json perf record, merging into
// any record already written for the day: optional sections carry
// omitempty, so a partial run (-svc, -tiers, -mc-sweep, ...) emits only
// the fields it measured and leaves the rest of the day's record
// standing instead of overwriting it with zeroes.
func writeReport(rep benchReport) {
	path := fmt.Sprintf("BENCH_%s.json", rep.Date)
	merged := make(map[string]json.RawMessage)
	if prev, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(prev, &merged); err != nil {
			fmt.Fprintf(os.Stderr, "orambench: %s exists but is not valid json (%v); rewriting\n", path, err)
			merged = make(map[string]json.RawMessage)
		}
	}
	data, err := json.Marshal(rep)
	if err == nil {
		var cur map[string]json.RawMessage
		if err = json.Unmarshal(data, &cur); err == nil {
			for k, v := range cur {
				merged[k] = v
			}
			data, err = json.MarshalIndent(merged, "", "  ")
		}
	}
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "orambench: writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

func main() {
	var (
		experiment = flag.String("experiment", "", "one experiment name (default: all)")
		mixes      = flag.Int("mixes", 0, "limit to the first N Table 2 mixes (0 = all)")
		requests   = flag.Uint64("requests", 0, "post-L1 accesses per core (0 = default)")
		dataBlocks = flag.Uint64("data-blocks", 0, "data ORAM size in 64B blocks (0 = default)")
		seed       = flag.Uint64("seed", 1, "random seed")
		parallel   = flag.Int("parallel", 0, "simulations in flight (0 = one per CPU)")
		jsonOut    = flag.Bool("json", false, "write a BENCH_<date>.json perf record")
		paper      = flag.Bool("paper", false, "full Table 1 geometry (4 GB ORAM; slow)")
		list       = flag.Bool("list", false, "list experiment names")
		svcOnly    = flag.Bool("svc", false, "run only the Service group-commit benchmark")
		svcOps     = flag.Int("svc-ops", 2000, "Service bench: acknowledged writes per run")
		shards     = flag.Int("shards", 1, "Service bench: ShardedService fleet width (1 = plain Service)")
		pipeDepth  = flag.Int("pipeline-depth", 0, "Service bench: staged-pipeline depth per device (0/1 = serial engine)")
		pipeSweep  = flag.Bool("pipeline-sweep", false, "run only the pipeline depth sweep (depths 1, 2, 4)")
		mcSweep    = flag.Bool("mc-sweep", false, "run only the multi-core pipeline sweep (gomaxprocs × depth)")
		xwSweep    = flag.Bool("xw", false, "run only the cross-window sweep (barriered vs cross-window run loop per depth)")
		mcLatency  = flag.Duration("mc-latency", 0, "mc/xw sweep: simulated remote round-trip per bulk call (0 = 200µs default)")
		requireMC  = flag.Bool("require-mc", false, "mc sweep: exit nonzero unless a GOMAXPROCS>=4 pipelined cell clears 1.3x; with -xw, unless a cross-window run beats its barriered twin")
		reshard    = flag.Bool("reshard", false, "run only the online reshard benchmark")
		tiers      = flag.Bool("tiers", false, "run only the storage tier benchmark (mem vs disk vs remote)")
		tierOps    = flag.Int("tier-ops", 500, "tier bench: acknowledged mixed ops per configuration (remote runs sleep real time)")
		newShards  = flag.Int("new-shards", 4, "reshard bench: recipient fleet width")
		maxProcs   = flag.Int("gomaxprocs", 0, "set runtime.GOMAXPROCS for the whole run (0 = leave default)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *list {
		for _, e := range forkoram.Experiments() {
			fmt.Println(e)
		}
		return
	}
	if *maxProcs > 0 {
		runtime.GOMAXPROCS(*maxProcs)
	}
	stopCPU, err := prof.StartCPU(*cpuProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "orambench: %v\n", err)
		os.Exit(1)
	}
	defer stopCPU()
	defer func() {
		if err := prof.WriteHeap(*memProfile); err != nil {
			fmt.Fprintf(os.Stderr, "orambench: %v\n", err)
		}
	}()

	svcCfg := forkoram.ServiceBenchConfig{
		Ops:           *svcOps,
		Shards:        *shards,
		Seed:          *seed,
		PipelineDepth: *pipeDepth,
	}
	reshardCfg := forkoram.ReshardBenchConfig{Seed: *seed, NewShards: *newShards}
	if *shards > 1 {
		reshardCfg.Shards = *shards
	}
	tierCfg := forkoram.TierBenchConfig{Ops: *tierOps, Seed: *seed}
	if *tiers {
		start := time.Now()
		res, err := forkoram.RunTierBench(tierCfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "orambench: tier bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(res.String())
		if *jsonOut {
			rep := benchReport{
				Date:        time.Now().Format("2006-01-02"),
				GoVersion:   runtime.Version(),
				GOMAXPROCS:  runtime.GOMAXPROCS(0),
				WallSeconds: time.Since(start).Seconds(),
			}
			rep.fillTiers(res)
			writeReport(rep)
		}
		return
	}
	if *reshard {
		start := time.Now()
		res, err := forkoram.RunReshardBench(reshardCfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "orambench: reshard bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(res.String())
		if *jsonOut {
			rep := benchReport{
				Date:        time.Now().Format("2006-01-02"),
				GoVersion:   runtime.Version(),
				GOMAXPROCS:  runtime.GOMAXPROCS(0),
				WallSeconds: time.Since(start).Seconds(),
			}
			rep.fillReshard(res)
			writeReport(rep)
		}
		return
	}
	if *xwSweep {
		start := time.Now()
		xwCfg := svcCfg
		xwCfg.RemoteLatency = *mcLatency
		res, err := forkoram.RunXWSweep(xwCfg, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "orambench: xw sweep: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(res.String())
		if *jsonOut {
			rep := benchReport{
				Date:        time.Now().Format("2006-01-02"),
				GoVersion:   runtime.Version(),
				GOMAXPROCS:  runtime.GOMAXPROCS(0),
				WallSeconds: time.Since(start).Seconds(),
			}
			rep.fillXWSweep(res)
			writeReport(rep)
		}
		if *requireMC {
			if err := requireXWPass(res); err != nil {
				fmt.Fprintf(os.Stderr, "orambench: xw guard: %v\n", err)
				os.Exit(1)
			}
			fmt.Println("xw guard: ok")
		}
		return
	}
	if *mcSweep {
		start := time.Now()
		mcCfg := svcCfg
		mcCfg.RemoteLatency = *mcLatency
		res, err := forkoram.RunMCSweep(mcCfg, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "orambench: mc sweep: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(res.String())
		if *jsonOut {
			rep := benchReport{
				Date:        time.Now().Format("2006-01-02"),
				GoVersion:   runtime.Version(),
				GOMAXPROCS:  runtime.GOMAXPROCS(0),
				WallSeconds: time.Since(start).Seconds(),
			}
			rep.fillMCSweep(res)
			writeReport(rep)
		}
		if *requireMC {
			if err := requireMCPass(res); err != nil {
				fmt.Fprintf(os.Stderr, "orambench: mc guard: %v\n", err)
				os.Exit(1)
			}
			fmt.Println("mc guard: ok")
		}
		return
	}
	if *pipeSweep {
		start := time.Now()
		res, err := forkoram.RunPipelineSweep(svcCfg, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "orambench: pipeline sweep: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(res.String())
		if *jsonOut {
			rep := benchReport{
				Date:        time.Now().Format("2006-01-02"),
				GoVersion:   runtime.Version(),
				GOMAXPROCS:  runtime.GOMAXPROCS(0),
				WallSeconds: time.Since(start).Seconds(),
			}
			rep.fillPipelineSweep(res)
			writeReport(rep)
		}
		return
	}
	if *svcOnly {
		start := time.Now()
		res, err := forkoram.RunServiceBench(svcCfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "orambench: svc bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(res.String())
		if *jsonOut {
			rep := benchReport{
				Date:        time.Now().Format("2006-01-02"),
				GoVersion:   runtime.Version(),
				GOMAXPROCS:  runtime.GOMAXPROCS(0),
				WallSeconds: time.Since(start).Seconds(),
			}
			rep.fillSvc(res)
			if *pipeDepth > 1 {
				// No depth-1 baseline in this mode; speedup comes from
				// -pipeline-sweep or -mc-sweep, which measure both.
				rep.fillPipelineRun(*pipeDepth, res.Grouped, 0)
			}
			writeReport(rep)
		}
		return
	}
	o := forkoram.ExperimentOptions{
		DataBlocks:      *dataBlocks,
		RequestsPerCore: *requests,
		Mixes:           *mixes,
		Seed:            *seed,
		Parallel:        *parallel,
		PaperScale:      *paper,
	}
	names := forkoram.Experiments()
	if *experiment != "" {
		names = []string{*experiment}
	}
	forkoram.ResetExperimentStats()
	start := time.Now()
	var reports []experimentReport
	var failed []string
	for _, name := range names {
		t0 := time.Now()
		err := forkoram.RunExperiment(name, o, os.Stdout)
		r := experimentReport{Name: name, Seconds: time.Since(t0).Seconds(), OK: err == nil}
		if err != nil {
			r.Error = err.Error()
			failed = append(failed, name)
			fmt.Fprintf(os.Stderr, "orambench: %s: %v\n", name, err)
		}
		reports = append(reports, r)
	}
	wall := time.Since(start)
	runs, busy := forkoram.ExperimentStats()
	speedup := 0.0
	if wall > 0 {
		speedup = busy.Seconds() / wall.Seconds()
	}
	runsPerSec := 0.0
	if wall > 0 {
		runsPerSec = float64(runs) / wall.Seconds()
	}
	fmt.Printf("done in %s: %d simulations (%.1f/s), parallel speedup %.2fx (busy %s)\n",
		wall.Round(time.Millisecond), runs, runsPerSec, speedup, busy.Round(time.Millisecond))

	if *jsonOut {
		allocs, nsOp, err := forkoram.AccessLoopStats(0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "orambench: access-loop probe: %v\n", err)
		}
		heals, replay, err := forkoram.RecoveryLoopStats(0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "orambench: recovery probe: %v\n", err)
		}
		svcRes, err := forkoram.RunServiceBench(svcCfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "orambench: svc bench: %v\n", err)
		} else {
			fmt.Print(svcRes.String())
		}
		reshardRes, reshardErr := forkoram.RunReshardBench(reshardCfg)
		if reshardErr != nil {
			fmt.Fprintf(os.Stderr, "orambench: reshard bench: %v\n", reshardErr)
		} else {
			fmt.Print(reshardRes.String())
		}
		tierRes, tierErr := forkoram.RunTierBench(tierCfg)
		if tierErr != nil {
			fmt.Fprintf(os.Stderr, "orambench: tier bench: %v\n", tierErr)
		} else {
			fmt.Print(tierRes.String())
		}
		rep := benchReport{
			Date:              time.Now().Format("2006-01-02"),
			GoVersion:         runtime.Version(),
			GOMAXPROCS:        runtime.GOMAXPROCS(0),
			Parallel:          *parallel,
			Experiments:       reports,
			WallSeconds:       wall.Seconds(),
			SimRuns:           runs,
			RunsPerSec:        runsPerSec,
			Speedup:           speedup,
			AccessAllocsPerOp: allocs,
			AccessNSPerOp:     nsOp,

			RecoverHealsPerSec:     heals,
			RecoverReplayOpsPerSec: replay,
		}
		rep.fillSvc(svcRes)
		if reshardErr == nil {
			rep.fillReshard(reshardRes)
		}
		if tierErr == nil {
			rep.fillTiers(tierRes)
		}
		if *pipeDepth > 1 {
			rep.fillPipelineRun(*pipeDepth, svcRes.Grouped, 0)
		}
		writeReport(rep)
	}

	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "orambench: %d experiment(s) failed: %v\n", len(failed), failed)
		os.Exit(1)
	}
}
