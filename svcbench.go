package forkoram

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"forkoram/internal/pathoram"
	"forkoram/internal/storage"
	"forkoram/internal/wal"
)

// ServiceBenchConfig parameterizes RunServiceBench, the end-to-end
// Service throughput benchmark: concurrent clients drive durable writes
// through the admission queue over a real file-backed journal, once with
// group commit enabled and once pinned to one-sync-per-op, so the
// benefit of coalescing (fewer fsyncs per acknowledged write, wider
// Fork merge windows) is measured rather than asserted.
type ServiceBenchConfig struct {
	// Blocks / BlockSize size the device (defaults 256 / 64).
	Blocks    uint64
	BlockSize int
	// Clients is the number of concurrent writers (default 8). With a
	// QueueDepth at least this large, the steady-state backlog is what
	// the group-commit path coalesces.
	Clients int
	// Ops is the total acknowledged writes per run (default 2000),
	// divided evenly among clients.
	Ops int
	// QueueDepth bounds the admission queue (default max(16, Clients)).
	QueueDepth int
	// Shards runs the workload through a ShardedService of this width
	// (default 1 = the plain single-Service pipeline). Each shard gets
	// its own file-backed journal; addresses stripe across shards, so
	// with enough cores the shard pipelines run in true parallel.
	Shards int
	// Dir is where the journal files live ("" = a fresh temp directory,
	// removed afterwards). Point it at the filesystem whose sync cost you
	// care about.
	Dir string
	// Seed derives payloads and the device seed.
	Seed uint64
	// PipelineDepth is forwarded to DeviceConfig.PipelineDepth: 0/1 runs
	// the serial engine, >=2 lets grouped dispatch windows overlap path
	// fetch, serve/evict, and writeback across up to that many accesses.
	PipelineDepth int
	// RemoteLatency, when > 0, interposes a simulated remote storage
	// tier charging this fixed round-trip cost per bulk call (no
	// transients). This is what makes latency-overlap benchmarks honest
	// on small hosts: fetch/writeback concurrency then buys wall-clock
	// even when every goroutine shares one core.
	RemoteLatency time.Duration
	// CrossWindow is forwarded to ServiceConfig.CrossWindow: the
	// committer/applier split, so window W+1's journal fsync overlaps
	// window W's execution.
	CrossWindow bool
	// GroupLinger is forwarded to ServiceConfig.GroupLinger. The
	// cross-window sweep sets it on BOTH sides of each pair: with
	// drain-based window formation the barriered pipeline gets free
	// coalescing (requests pile up while it blocks on fsync+execute),
	// so equal-linger formation is what makes the pair apples-to-apples.
	GroupLinger time.Duration
}

func (c ServiceBenchConfig) withDefaults() ServiceBenchConfig {
	if c.Blocks == 0 {
		c.Blocks = 256
	}
	if c.BlockSize == 0 {
		c.BlockSize = 64
	}
	if c.Clients == 0 {
		c.Clients = 8
	}
	if c.Ops == 0 {
		c.Ops = 2000
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = c.Clients * 2
	}
	if c.QueueDepth < c.Clients {
		c.QueueDepth = c.Clients
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Seed == 0 {
		c.Seed = 0x5bc4
	}
	return c
}

// ServiceBenchRun is one measured configuration.
type ServiceBenchRun struct {
	Ops           int           `json:"ops"`
	Elapsed       time.Duration `json:"elapsed_ns"`
	OpsPerSec     float64       `json:"ops_per_sec"`
	P50Latency    time.Duration `json:"p50_latency_ns"`
	P99Latency    time.Duration `json:"p99_latency_ns"`
	WALSyncs      uint64        `json:"wal_syncs"`
	WALSyncsPerOp float64       `json:"wal_syncs_per_op"`
	Groups        uint64        `json:"groups"`
	MeanGroupSize float64       `json:"mean_group_size"`
	// GroupSizes histograms dispatch-window sizes: buckets 1, 2, 3–4,
	// 5–8, 9–16, 17–32, 33–64, 65–128, 129+.
	GroupSizes [9]uint64 `json:"group_size_hist"`
	// Pipeline holds the staged-pipeline counter deltas for this run:
	// windows, prefetches, writebacks, and the per-stage stall counts and
	// nanoseconds (zero when PipelineDepth <= 1).
	Pipeline pathoram.PipelineStats `json:"pipeline"`
}

// ServiceBenchResult pairs the grouped run with its per-op-sync
// baseline (MaxGroupSize=1 — the pre-group-commit pipeline).
type ServiceBenchResult struct {
	// Shards is the fleet width both runs used (1 = plain Service).
	Shards   int             `json:"shards"`
	Grouped  ServiceBenchRun `json:"grouped"`
	Baseline ServiceBenchRun `json:"baseline"`
	// Speedup is Grouped.OpsPerSec / Baseline.OpsPerSec.
	Speedup float64 `json:"speedup"`
}

// String renders the result for the CLI.
func (r *ServiceBenchResult) String() string {
	line := func(name string, run *ServiceBenchRun) string {
		return fmt.Sprintf("  %-8s %9.0f ops/s, p50 %8s, p99 %8s, %.3f syncs/op, mean group %.1f\n",
			name, run.OpsPerSec, run.P50Latency.Round(time.Microsecond),
			run.P99Latency.Round(time.Microsecond), run.WALSyncsPerOp, run.MeanGroupSize)
	}
	return fmt.Sprintf("service group-commit bench (%d ops per run, %d shard(s), file-backed journals):\n",
		r.Grouped.Ops, r.Shards) +
		line("grouped", &r.Grouped) + line("baseline", &r.Baseline) +
		fmt.Sprintf("  group-commit speedup: %.2fx\n", r.Speedup)
}

// RunServiceBench measures end-to-end Service write throughput over a
// file-backed journal, grouped vs. per-op sync. Both runs use identical
// workloads, device geometry, and journal medium; only MaxGroupSize
// differs, so the ratio isolates what group commit buys.
func RunServiceBench(cfg ServiceBenchConfig) (ServiceBenchResult, error) {
	cfg = cfg.withDefaults()
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "forkoram-svcbench")
		if err != nil {
			return ServiceBenchResult{}, err
		}
		defer os.RemoveAll(dir)
	}
	var res ServiceBenchResult
	res.Shards = cfg.Shards
	grouped, err := runSvcBench(cfg, dir, "grouped", 0)
	if err != nil {
		return res, fmt.Errorf("forkoram: svc bench grouped run: %w", err)
	}
	baseline, err := runSvcBench(cfg, dir, "baseline", 1)
	if err != nil {
		return res, fmt.Errorf("forkoram: svc bench baseline run: %w", err)
	}
	res.Grouped, res.Baseline = grouped, baseline
	if baseline.OpsPerSec > 0 {
		res.Speedup = grouped.OpsPerSec / baseline.OpsPerSec
	}
	return res, nil
}

// svcBenchTarget abstracts the single and sharded service front doors
// for the benchmark loop.
type svcBenchTarget interface {
	Write(ctx context.Context, addr uint64, data []byte) error
	Close() error
}

// runSvcBench stands up one Service (or a ShardedService fleet, one
// file journal per shard) over fresh file journals and times the
// concurrent write workload through it.
func runSvcBench(cfg ServiceBenchConfig, dir, name string, maxGroup int) (ServiceBenchRun, error) {
	var run ServiceBenchRun
	tmpl := ServiceConfig{
		Device: DeviceConfig{
			Blocks:        cfg.Blocks,
			BlockSize:     cfg.BlockSize,
			QueueSize:     8,
			Seed:          cfg.Seed,
			Variant:       Fork,
			PipelineDepth: cfg.PipelineDepth,
		},
		QueueDepth: cfg.QueueDepth,
		// Checkpoints clone the whole medium; keep them out of the timed
		// window so both runs measure the journal-and-apply pipeline.
		CheckpointEvery: 1 << 30,
		MaxGroupSize:    maxGroup,
		CrossWindow:     cfg.CrossWindow,
		GroupLinger:     cfg.GroupLinger,
	}
	if cfg.RemoteLatency > 0 {
		tmpl.Device.Storage.Remote = &storage.RemoteConfig{
			ReadLatency:  cfg.RemoteLatency,
			WriteLatency: cfg.RemoteLatency,
		}
	}
	var (
		svc   svcBenchTarget
		stats func() ServiceStats
	)
	if cfg.Shards > 1 {
		// Per-shard file journals, opened inside PerShard (the hook
		// cannot fail, so surface the first error afterwards).
		stores := make([]*wal.FileStore, 0, cfg.Shards)
		var openErr error
		sh, err := NewShardedService(ShardedServiceConfig{
			Shards:  cfg.Shards,
			Service: tmpl,
			PerShard: func(_ RoutingPolicy, shard int, sc *ServiceConfig) {
				st, err := OpenWALFile(filepath.Join(dir, fmt.Sprintf("%s.shard%d.wal", name, shard)))
				if err != nil {
					if openErr == nil {
						openErr = err
					}
					return
				}
				stores = append(stores, st)
				sc.WAL = st
				sc.Checkpoints = NewMemCheckpointStore()
			},
		})
		defer func() {
			for _, st := range stores {
				st.Close()
			}
		}()
		if openErr != nil || err != nil {
			if sh != nil {
				sh.Close()
			}
			if openErr != nil {
				return run, openErr
			}
			return run, err
		}
		svc, stats = sh, func() ServiceStats { return sh.Stats().Total }
	} else {
		st, err := OpenWALFile(filepath.Join(dir, name+".wal"))
		if err != nil {
			return run, err
		}
		defer st.Close()
		tmpl.WAL = st
		tmpl.Checkpoints = NewMemCheckpointStore()
		s, err := NewService(tmpl)
		if err != nil {
			return run, err
		}
		svc, stats = s, s.Stats
	}
	defer svc.Close()

	ctx := context.Background()
	perClient := cfg.Ops / cfg.Clients
	total := perClient * cfg.Clients
	// Warmup: touch the device and journal once per client outside the
	// timed window.
	for i := 0; i < cfg.Clients; i++ {
		if err := svc.Write(ctx, uint64(i)%cfg.Blocks, chaosPayload(cfg.BlockSize, cfg.Seed, uint64(i)+1)); err != nil {
			return run, err
		}
	}
	before := stats()

	lats := make([][]time.Duration, cfg.Clients)
	errs := make([]error, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat := make([]time.Duration, 0, perClient)
			for i := 0; i < perClient; i++ {
				n := uint64(c*perClient + i)
				addr := (n * 2654435761) % cfg.Blocks
				data := chaosPayload(cfg.BlockSize, cfg.Seed, n+1)
				t0 := time.Now()
				if err := svc.Write(ctx, addr, data); err != nil {
					errs[c] = err
					return
				}
				lat = append(lat, time.Since(t0))
			}
			lats[c] = lat
		}(c)
	}
	wg.Wait()
	run.Elapsed = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return run, err
		}
	}
	after := stats()

	all := make([]time.Duration, 0, total)
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	run.Ops = total
	if sec := run.Elapsed.Seconds(); sec > 0 {
		run.OpsPerSec = float64(total) / sec
	}
	run.P50Latency = percentile(all, 50)
	run.P99Latency = percentile(all, 99)
	run.WALSyncs = after.WALSyncs - before.WALSyncs
	run.WALSyncsPerOp = float64(run.WALSyncs) / float64(total)
	run.Groups = after.Groups - before.Groups
	if run.Groups > 0 {
		run.MeanGroupSize = float64(after.GroupedOps-before.GroupedOps) / float64(run.Groups)
	}
	for i := range run.GroupSizes {
		run.GroupSizes[i] = after.GroupSizes[i] - before.GroupSizes[i]
	}
	run.Pipeline = after.Pipeline.Delta(before.Pipeline)
	return run, nil
}

// PipelineSweepRun is one pipeline depth's measurement within a sweep.
type PipelineSweepRun struct {
	// Depth is the DeviceConfig.PipelineDepth this run used (1 = serial).
	Depth int             `json:"depth"`
	Run   ServiceBenchRun `json:"run"`
	// Speedup is this depth's OpsPerSec over the depth-1 run's.
	Speedup float64 `json:"speedup"`
	// Gomaxprocs is runtime.GOMAXPROCS at the moment THIS entry was
	// measured (not just when the sweep started): a sweep aggregate
	// must not be able to hide entries measured under a different
	// scheduler width.
	Gomaxprocs int `json:"gomaxprocs"`
}

// PipelineSweepResult holds a depth sweep over one workload: the same
// grouped, file-journaled write storm at PipelineDepth 1, 2, 4, ...
// Depth 1 is the serial baseline; deeper runs may only move crypto and
// medium traffic in time, so any ops/sec delta is pipeline overlap.
type PipelineSweepResult struct {
	// Cores is runtime.GOMAXPROCS at measurement time. Overlap needs
	// cores: on a single-CPU host the stages time-slice and the sweep
	// measures scheduling overhead, not parallelism.
	Cores  int                `json:"cores"`
	Depths []PipelineSweepRun `json:"depths"`
}

// String renders the sweep as a comparison table for the CLI.
func (r *PipelineSweepResult) String() string {
	var b strings.Builder
	ops := 0
	if len(r.Depths) > 0 {
		ops = r.Depths[0].Run.Ops
	}
	fmt.Fprintf(&b, "service pipeline depth sweep (%d ops per run, GOMAXPROCS=%d, grouped commit):\n", ops, r.Cores)
	fmt.Fprintf(&b, "  %5s  %10s  %7s  %10s  %12s  %12s  %12s\n",
		"depth", "ops/s", "speedup", "p99", "fetch-wait", "evict-wait", "wb-wait")
	for _, d := range r.Depths {
		p := d.Run.Pipeline
		fmt.Fprintf(&b, "  %5d  %10.0f  %6.2fx  %10s  %12s  %12s  %12s\n",
			d.Depth, d.Run.OpsPerSec, d.Speedup,
			d.Run.P99Latency.Round(time.Microsecond),
			time.Duration(p.FetchWaitNs).Round(time.Microsecond),
			time.Duration(p.EvictWaitNs).Round(time.Microsecond),
			time.Duration(p.WritebackWaitNs).Round(time.Microsecond))
	}
	return b.String()
}

// RunPipelineSweep measures the same grouped Service write workload at
// each pipeline depth (default 1, 2, 4) and reports per-depth throughput
// plus stage-stall telemetry. Defaults skew crypto-heavy (larger blocks
// than RunServiceBench) so the fetch and writeback stages carry enough
// AES work for overlap to matter; pass explicit geometry to override.
func RunPipelineSweep(cfg ServiceBenchConfig, depths []int) (PipelineSweepResult, error) {
	if cfg.Blocks == 0 {
		cfg.Blocks = 512
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 1024
	}
	cfg = cfg.withDefaults()
	if len(depths) == 0 {
		depths = []int{1, 2, 4}
	}
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "forkoram-pipesweep")
		if err != nil {
			return PipelineSweepResult{}, err
		}
		defer os.RemoveAll(dir)
	}
	res := PipelineSweepResult{Cores: runtime.GOMAXPROCS(0)}
	var base float64
	for _, depth := range depths {
		dcfg := cfg
		dcfg.PipelineDepth = depth
		run, err := runSvcBench(dcfg, dir, fmt.Sprintf("depth%d", depth), 0)
		if err != nil {
			return res, fmt.Errorf("forkoram: pipeline sweep depth %d: %w", depth, err)
		}
		sr := PipelineSweepRun{Depth: depth, Run: run, Gomaxprocs: runtime.GOMAXPROCS(0)}
		if depth == 1 || base == 0 {
			base = run.OpsPerSec
		}
		if base > 0 {
			sr.Speedup = run.OpsPerSec / base
		}
		res.Depths = append(res.Depths, sr)
	}
	return res, nil
}

// MCSweepRun is one (gomaxprocs, depth) cell of the multi-core sweep.
// Gomaxprocs and NumCPU are stamped per entry — a sweep claiming
// multi-core speedup must show the scheduler width each individual
// number was measured under, not a top-level value that a mid-sweep
// change could silently betray.
type MCSweepRun struct {
	Gomaxprocs int             `json:"gomaxprocs"`
	NumCPU     int             `json:"num_cpu"`
	Depth      int             `json:"depth"`
	Run        ServiceBenchRun `json:"run"`
	// Speedup is this cell's OpsPerSec over the depth-1 serial cell at
	// the SAME gomaxprocs (1.0 for the baseline cells themselves).
	Speedup float64 `json:"speedup"`
}

// MCSweepResult is the multi-core scaling baseline: the same grouped,
// file-journaled write storm measured across a gomaxprocs × depth grid.
// Each gomaxprocs level carries its own depth-1 serial baseline, so
// every speedup is same-scheduler-width honest.
type MCSweepResult struct {
	// NumCPU is the host's core count — on a single-core host any
	// speedup is latency overlap (the simulated remote tier's RTT),
	// not compute parallelism, and readers must be able to tell.
	NumCPU int `json:"num_cpu"`
	// RemoteLatencyNs echoes the simulated remote round-trip each bulk
	// call paid (0 = in-memory medium only).
	RemoteLatencyNs int64        `json:"remote_latency_ns"`
	Runs            []MCSweepRun `json:"runs"`
	// BestSpeedup / BestGomaxprocs / BestDepth locate the best pipelined
	// cell (the headline the CI guard checks against its gomaxprocs).
	BestSpeedup    float64 `json:"best_speedup"`
	BestGomaxprocs int     `json:"best_gomaxprocs"`
	BestDepth      int     `json:"best_depth"`
}

// String renders the sweep as a comparison table for the CLI.
func (r *MCSweepResult) String() string {
	var b strings.Builder
	ops := 0
	if len(r.Runs) > 0 {
		ops = r.Runs[0].Run.Ops
	}
	fmt.Fprintf(&b, "service multi-core sweep (%d ops per run, host cores %d, remote RTT %s):\n",
		ops, r.NumCPU, time.Duration(r.RemoteLatencyNs))
	fmt.Fprintf(&b, "  %4s  %5s  %10s  %7s  %10s  %12s  %12s\n",
		"gmp", "depth", "ops/s", "speedup", "p99", "dep-wait", "serve-wait")
	for _, c := range r.Runs {
		p := c.Run.Pipeline
		fmt.Fprintf(&b, "  %4d  %5d  %10.0f  %6.2fx  %10s  %12s  %12s\n",
			c.Gomaxprocs, c.Depth, c.Run.OpsPerSec, c.Speedup,
			c.Run.P99Latency.Round(time.Microsecond),
			time.Duration(p.DepWaitNs).Round(time.Microsecond),
			time.Duration(p.ServeWaitNs).Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "  best pipelined cell: %.2fx at GOMAXPROCS=%d depth=%d\n",
		r.BestSpeedup, r.BestGomaxprocs, r.BestDepth)
	return b.String()
}

// RunMCSweep measures the grouped Service write workload across a
// gomaxprocs × depth grid, restoring GOMAXPROCS afterwards. Defaults:
// gomaxprocs {1, 4}, depths 1 (serial), 2 and 4, over a simulated
// remote tier with a 200µs round trip — the configuration whose latency
// the pipeline exists to overlap. The workload is crypto-light
// (RunServiceBench geometry) so the remote RTT dominates and the sweep
// measures overlap, not AES throughput.
func RunMCSweep(cfg ServiceBenchConfig, gomaxprocs []int) (MCSweepResult, error) {
	if cfg.RemoteLatency == 0 {
		cfg.RemoteLatency = 200 * time.Microsecond
	}
	cfg = cfg.withDefaults()
	if len(gomaxprocs) == 0 {
		gomaxprocs = []int{1, 4}
	}
	depths := []int{1, 2, 4}
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "forkoram-mcsweep")
		if err != nil {
			return MCSweepResult{}, err
		}
		defer os.RemoveAll(dir)
	}
	res := MCSweepResult{NumCPU: runtime.NumCPU(), RemoteLatencyNs: int64(cfg.RemoteLatency)}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, gmp := range gomaxprocs {
		runtime.GOMAXPROCS(gmp)
		var base float64
		for _, depth := range depths {
			ccfg := cfg
			ccfg.PipelineDepth = depth
			run, err := runSvcBench(ccfg, dir, fmt.Sprintf("mc.g%d.d%d", gmp, depth), 0)
			if err != nil {
				return res, fmt.Errorf("forkoram: mc sweep gmp=%d depth=%d: %w", gmp, depth, err)
			}
			c := MCSweepRun{
				Gomaxprocs: runtime.GOMAXPROCS(0),
				NumCPU:     runtime.NumCPU(),
				Depth:      depth,
				Run:        run,
			}
			if depth == 1 || base == 0 {
				base = run.OpsPerSec
			}
			if base > 0 {
				c.Speedup = run.OpsPerSec / base
			}
			res.Runs = append(res.Runs, c)
			if depth >= 2 && c.Speedup > res.BestSpeedup {
				res.BestSpeedup = c.Speedup
				res.BestGomaxprocs = c.Gomaxprocs
				res.BestDepth = c.Depth
			}
		}
	}
	return res, nil
}

// XWSweepRun is one pipeline depth measured twice under identical
// workload, geometry, and journal medium: once with the window-barriered
// Service loop and once with the cross-window committer/applier loop.
// Gomaxprocs and NumCPU are stamped per entry for the same reason
// MCSweepRun stamps them: every speedup must show the scheduler width
// it was measured under.
type XWSweepRun struct {
	Gomaxprocs int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	Depth      int `json:"depth"`
	// Barriered blocks on the group fsync at every window seam;
	// CrossWindow overlaps the next window's fsync with execution.
	Barriered   ServiceBenchRun `json:"barriered"`
	CrossWindow ServiceBenchRun `json:"cross_window"`
	// Speedup is CrossWindow.OpsPerSec over Barriered.OpsPerSec at this
	// depth — the two runs differ ONLY in the CrossWindow toggle.
	Speedup float64 `json:"speedup"`
}

// XWSweepResult is the cross-window vs. barriered comparison per
// pipeline depth: the same grouped, file-journaled write storm over a
// simulated remote tier, measured under both Service run loops.
type XWSweepResult struct {
	NumCPU int `json:"num_cpu"`
	// RemoteLatencyNs echoes the simulated remote round-trip each bulk
	// call paid (0 = in-memory medium only).
	RemoteLatencyNs int64        `json:"remote_latency_ns"`
	Runs            []XWSweepRun `json:"runs"`
	// BestSpeedup locates the depth where the cross-window loop bought
	// the most (the headline the CI guard checks).
	BestSpeedup    float64 `json:"best_speedup"`
	BestGomaxprocs int     `json:"best_gomaxprocs"`
	BestDepth      int     `json:"best_depth"`
}

// String renders the sweep as a comparison table for the CLI.
func (r *XWSweepResult) String() string {
	var b strings.Builder
	ops := 0
	if len(r.Runs) > 0 {
		ops = r.Runs[0].Barriered.Ops
	}
	fmt.Fprintf(&b, "service cross-window sweep (%d ops per run, host cores %d, remote RTT %s):\n",
		ops, r.NumCPU, time.Duration(r.RemoteLatencyNs))
	fmt.Fprintf(&b, "  %4s  %5s  %12s  %12s  %7s  %14s  %14s\n",
		"gmp", "depth", "barrier ops/s", "xw ops/s", "speedup", "barrier seam", "xw seam")
	seam := func(run *ServiceBenchRun) time.Duration {
		p := run.Pipeline
		if p.WindowTurnarounds == 0 {
			return 0
		}
		return time.Duration(p.WindowTurnaroundNs / p.WindowTurnarounds)
	}
	for _, c := range r.Runs {
		fmt.Fprintf(&b, "  %4d  %5d  %12.0f  %12.0f  %6.2fx  %14s  %14s\n",
			c.Gomaxprocs, c.Depth,
			c.Barriered.OpsPerSec, c.CrossWindow.OpsPerSec, c.Speedup,
			seam(&c.Barriered).Round(time.Microsecond),
			seam(&c.CrossWindow).Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "  best cross-window depth: %.2fx at GOMAXPROCS=%d depth=%d\n",
		r.BestSpeedup, r.BestGomaxprocs, r.BestDepth)
	return b.String()
}

// RunXWSweep measures the grouped Service write workload at each
// pipeline depth twice — under the barriered and the cross-window run
// loop — over a simulated remote tier (default 200µs round trip, the
// medium whose seam stalls the cross-window loop exists to hide).
// Default depths: 2 and 4. The pairing is the point: same depth, same
// journal, same payloads — the only degree of freedom is the run loop.
func RunXWSweep(cfg ServiceBenchConfig, depths []int) (XWSweepResult, error) {
	if cfg.RemoteLatency == 0 {
		cfg.RemoteLatency = 200 * time.Microsecond
	}
	if cfg.GroupLinger == 0 {
		// Deliberate window formation, identical on both sides of every
		// pair. Without it the comparison is rigged against cross-window:
		// the barriered loop coalesces for free while it blocks at the
		// seam, and the cross-window loop's smaller windows amortize the
		// per-bulk-call RTT worse. With it, formation time (and the group
		// fsync) hides under the previous window's execution only when
		// the seam doesn't barrier — which is the thing measured.
		cfg.GroupLinger = cfg.RemoteLatency
	}
	cfg = cfg.withDefaults()
	if len(depths) == 0 {
		depths = []int{2, 4}
	}
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "forkoram-xwsweep")
		if err != nil {
			return XWSweepResult{}, err
		}
		defer os.RemoveAll(dir)
	}
	res := XWSweepResult{NumCPU: runtime.NumCPU(), RemoteLatencyNs: int64(cfg.RemoteLatency)}
	for _, depth := range depths {
		ccfg := cfg
		ccfg.PipelineDepth = depth
		ccfg.CrossWindow = false
		bar, err := runSvcBench(ccfg, dir, fmt.Sprintf("xw.bar.d%d", depth), 0)
		if err != nil {
			return res, fmt.Errorf("forkoram: xw sweep barriered depth=%d: %w", depth, err)
		}
		ccfg.CrossWindow = true
		xw, err := runSvcBench(ccfg, dir, fmt.Sprintf("xw.xw.d%d", depth), 0)
		if err != nil {
			return res, fmt.Errorf("forkoram: xw sweep cross-window depth=%d: %w", depth, err)
		}
		c := XWSweepRun{
			Gomaxprocs:  runtime.GOMAXPROCS(0),
			NumCPU:      runtime.NumCPU(),
			Depth:       depth,
			Barriered:   bar,
			CrossWindow: xw,
		}
		if bar.OpsPerSec > 0 {
			c.Speedup = xw.OpsPerSec / bar.OpsPerSec
		}
		res.Runs = append(res.Runs, c)
		if c.Speedup > res.BestSpeedup {
			res.BestSpeedup = c.Speedup
			res.BestGomaxprocs = c.Gomaxprocs
			res.BestDepth = c.Depth
		}
	}
	return res, nil
}

// percentile returns the p-th percentile of sorted durations
// (nearest-rank; zero for an empty slice).
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)*p + 99) / 100
	if i > 0 {
		i--
	}
	return sorted[i]
}

// ReshardBenchConfig parameterizes RunReshardBench: one online split
// over file-backed journals with concurrent client writers, measuring
// migration throughput and what the dual-routed front door still
// delivers to clients while it runs.
type ReshardBenchConfig struct {
	// Blocks / BlockSize size the global space (defaults 512 / 64).
	Blocks    uint64
	BlockSize int
	// Shards / NewShards are the donor and recipient widths (defaults
	// 2 → 4).
	Shards    int
	NewShards int
	// ChunkBlocks is the migration chunk size (default 32).
	ChunkBlocks int
	// Clients is the number of concurrent writers running for the whole
	// migration (default 4).
	Clients int
	// Dir is where the journal files live ("" = fresh temp directory).
	Dir string
	// Seed derives payloads and device seeds.
	Seed uint64
}

func (c ReshardBenchConfig) withDefaults() ReshardBenchConfig {
	if c.Blocks == 0 {
		c.Blocks = 512
	}
	if c.BlockSize == 0 {
		c.BlockSize = 64
	}
	if c.Shards == 0 {
		c.Shards = 2
	}
	if c.NewShards == 0 {
		c.NewShards = 4
	}
	if c.ChunkBlocks == 0 {
		c.ChunkBlocks = 32
	}
	if c.Clients == 0 {
		c.Clients = 4
	}
	if c.Seed == 0 {
		c.Seed = 0x4e5d
	}
	return c
}

// ReshardBenchResult is one measured online migration.
type ReshardBenchResult struct {
	FromShards int    `json:"from_shards"`
	ToShards   int    `json:"to_shards"`
	Blocks     uint64 `json:"blocks"`
	// Elapsed/BlocksPerSec time the Reshard call itself; Chunks the
	// journaled watermark advances; StallNs the summed write-barrier
	// drain time (how long admissions were actually held).
	Elapsed      time.Duration `json:"elapsed_ns"`
	BlocksPerSec float64       `json:"blocks_per_sec"`
	Chunks       uint64        `json:"chunks"`
	StallNs      uint64        `json:"stall_ns"`
	// Epoch is the policy version in force after the cutover.
	Epoch uint64 `json:"epoch"`
	// ClientOps / ClientOpsPerSec / ClientP99 measure the writes clients
	// pushed through the dual-routed front door DURING the migration.
	ClientOps       int           `json:"client_ops"`
	ClientOpsPerSec float64       `json:"client_ops_per_sec"`
	ClientP99       time.Duration `json:"client_p99_ns"`
}

// String renders the result for the CLI.
func (r *ReshardBenchResult) String() string {
	return fmt.Sprintf("online reshard bench (%d blocks, %d→%d shards, file-backed journals):\n",
		r.Blocks, r.FromShards, r.ToShards) +
		fmt.Sprintf("  migration: %8s, %9.0f blocks/s in %d chunks, write-barrier stall %s\n",
			r.Elapsed.Round(time.Millisecond), r.BlocksPerSec, r.Chunks,
			time.Duration(r.StallNs).Round(time.Microsecond)) +
		fmt.Sprintf("  clients:   %9.0f ops/s during migration (%d ops, p99 %s) — no full-stop window\n",
			r.ClientOpsPerSec, r.ClientOps, r.ClientP99.Round(time.Microsecond))
}

// RunReshardBench stands a fleet up over per-(version, shard) file
// journals and a file-backed router journal, prefills every block, then
// times one online split to NewShards while Clients concurrent writers
// keep hammering the front door. Client writes ride dual routing the
// whole way: the only hold is the per-chunk write barrier, which the
// StallNs figure exposes.
func RunReshardBench(cfg ReshardBenchConfig) (ReshardBenchResult, error) {
	cfg = cfg.withDefaults()
	var res ReshardBenchResult
	res.FromShards, res.ToShards, res.Blocks = cfg.Shards, cfg.NewShards, cfg.Blocks
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "forkoram-reshardbench")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(dir)
	}
	rstore, err := OpenWALFile(filepath.Join(dir, "router.wal"))
	if err != nil {
		return res, err
	}
	defer rstore.Close()
	var (
		mu      sync.Mutex
		stores  []*wal.FileStore
		openErr error
	)
	svc, err := NewShardedService(ShardedServiceConfig{
		Shards: cfg.Shards,
		Service: ServiceConfig{
			Device: DeviceConfig{
				Blocks:    cfg.Blocks,
				BlockSize: cfg.BlockSize,
				QueueSize: 8,
				Seed:      cfg.Seed,
				Variant:   Fork,
			},
			QueueDepth:      16,
			CheckpointEvery: 1 << 30,
		},
		RouterWAL: rstore,
		PerShard: func(p RoutingPolicy, shard int, sc *ServiceConfig) {
			st, err := OpenWALFile(filepath.Join(dir, fmt.Sprintf("v%d.shard%d.wal", p.Version, shard)))
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if openErr == nil {
					openErr = err
				}
				return
			}
			stores = append(stores, st)
			sc.WAL = st
			sc.Checkpoints = NewMemCheckpointStore()
		},
	})
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, st := range stores {
			st.Close()
		}
	}()
	if openErr != nil || err != nil {
		if svc != nil {
			svc.Close()
		}
		if openErr != nil {
			return res, openErr
		}
		return res, err
	}
	defer svc.Close()

	ctx := context.Background()
	for addr := uint64(0); addr < cfg.Blocks; addr++ {
		if err := svc.Write(ctx, addr, chaosPayload(cfg.BlockSize, cfg.Seed, addr+1)); err != nil {
			return res, err
		}
	}

	// Client writers run for the whole migration window.
	stop := make(chan struct{})
	lats := make([][]time.Duration, cfg.Clients)
	cerrs := make([]error, cfg.Clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat []time.Duration
			for n := uint64(0); ; n++ {
				select {
				case <-stop:
					lats[c] = lat
					return
				default:
				}
				addr := (n*2654435761 + uint64(c)) % cfg.Blocks
				data := chaosPayload(cfg.BlockSize, cfg.Seed^uint64(c+1), n+1)
				t0 := time.Now()
				if err := svc.Write(ctx, addr, data); err != nil {
					cerrs[c] = err
					lats[c] = lat
					return
				}
				lat = append(lat, time.Since(t0))
			}
		}(c)
	}

	start := time.Now()
	rerr := svc.Reshard(ctx, ReshardConfig{NewShards: cfg.NewShards, ChunkBlocks: cfg.ChunkBlocks})
	res.Elapsed = time.Since(start)
	close(stop)
	wg.Wait()
	if rerr != nil {
		return res, rerr
	}
	for _, err := range cerrs {
		if err != nil {
			return res, err
		}
	}

	m := svc.Stats().Migration
	res.Chunks = m.Chunks
	res.StallNs = m.StallNs
	res.Epoch = m.Epoch
	if sec := res.Elapsed.Seconds(); sec > 0 {
		res.BlocksPerSec = float64(m.BlocksMoved) / sec
		var all []time.Duration
		for _, l := range lats {
			all = append(all, l...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		res.ClientOps = len(all)
		res.ClientOpsPerSec = float64(len(all)) / sec
		res.ClientP99 = percentile(all, 99)
	}
	return res, nil
}
