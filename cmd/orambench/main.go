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
// compare harness throughput and hot-path cost across commits.
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
}

type experimentReport struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	OK      bool    `json:"ok"`
	Error   string  `json:"error,omitempty"`
}

// writeReport writes the BENCH_<date>.json perf record into the
// working directory.
func writeReport(rep benchReport) {
	path := fmt.Sprintf("BENCH_%s.json", rep.Date)
	data, err := json.MarshalIndent(rep, "", "  ")
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
		writeReport(rep)
	}

	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "orambench: %d experiment(s) failed: %v\n", len(failed), failed)
		os.Exit(1)
	}
}
