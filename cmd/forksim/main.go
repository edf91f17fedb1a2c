// Command forksim runs one full-system simulation and prints its metrics.
//
// Examples:
//
//	forksim -scheme forkpath -mix Mix3
//	forksim -scheme traditional -workloads mcf,lbm,bwaves,libquantum
//	forksim -scheme forkpath -cache mac -cache-bytes 1048576 -queue 64
//	forksim -scheme insecure -mix Mix1 -requests 5000
//
// With -campaign, forksim instead runs a deterministic crash campaign
// (RunCampaign) against one topology — a bare Device under storage
// faults, one supervised Service, a sharded fleet, or a fleet resharding
// online — or against all four, and exits non-zero if any acknowledged
// write is lost, any read is silently wrong, or any failure escapes
// untyped:
//
//	forksim -campaign all -seed 1 -schedules 1000
//	forksim -campaign single -seed 7 -schedules 72
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	forkoram "forkoram"
	"forkoram/internal/cpu"
	"forkoram/internal/prof"
	"forkoram/internal/workload"
)

func main() {
	var (
		scheme     = flag.String("scheme", "forkpath", "insecure | traditional | forkpath")
		mix        = flag.String("mix", "", "Table 2 mix name (Mix1..Mix10)")
		workloads  = flag.String("workloads", "", "comma-separated benchmark names, one per core")
		multi      = flag.String("parsec", "", "multithreaded PARSEC-like workload name")
		cores      = flag.Int("cores", 4, "core count")
		inorder    = flag.Bool("inorder", false, "in-order cores (default out-of-order)")
		requests   = flag.Uint64("requests", 5000, "post-L1 accesses per core")
		dataBlocks = flag.Uint64("data-blocks", 1<<22, "data ORAM size in 64B blocks")
		queue      = flag.Int("queue", 64, "label queue size")
		cacheKind  = flag.String("cache", "none", "none | treetop | mac")
		cacheBytes = flag.Int("cache-bytes", 1<<20, "on-chip bucket cache capacity")
		channels   = flag.Int("channels", 2, "DRAM channels")
		flat       = flag.Bool("flat-layout", false, "use the flat DRAM layout (ablation)")
		noReplace  = flag.Bool("no-dummy-replace", false, "disable dummy request replacing")
		superBlock = flag.Int("superblock", 0, "static super-block size (0/1 = off, power of two)")
		bgEvict    = flag.Int("bg-evict", 0, "background-eviction stash threshold (0 = off)")
		periodic   = flag.Float64("periodic-ns", 0, "fixed issue interval in ns (0 = on-demand)")
		seed       = flag.Uint64("seed", 1, "random seed")

		campaign  = flag.String("campaign", "", "run a crash campaign instead of a simulation: device | single | sharded | reshard | all")
		schedules = flag.Int("schedules", 0, "campaign: schedules per topology (0 = one per combination of its dimensions)")

		scrub      = flag.Bool("scrub", false, "one-shot scrub over a disk bucket image (-scrub-image), or a self-checking corruption demo without one")
		scrubImage = flag.String("scrub-image", "", "scrub: path of the disk bucket store to audit")
		scrubKey   = flag.String("scrub-key", "", "scrub: hex bucket key; empty audits frames only (epoch + CRC, no decrypt)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopCPU, err := prof.StartCPU(*cpuProfile)
	if err != nil {
		fatalf("%v", err)
	}
	defer stopCPU()
	defer func() {
		if err := prof.WriteHeap(*memProfile); err != nil {
			fmt.Fprintf(os.Stderr, "forksim: %v\n", err)
		}
	}()

	if *campaign != "" {
		runCampaign(*campaign, *seed, *schedules)
		return
	}
	if *scrub {
		runScrub(*scrubImage, *scrubKey, *seed)
		return
	}

	var sch forkoram.Scheme
	switch *scheme {
	case "insecure":
		sch = forkoram.SchemeInsecure
	case "traditional":
		sch = forkoram.SchemeTraditional
	case "forkpath":
		sch = forkoram.SchemeForkPath
	default:
		fatalf("unknown scheme %q", *scheme)
	}

	cfg := forkoram.DefaultSimConfig(sch)
	cfg.Cores = *cores
	cfg.RequestsPerCore = *requests
	cfg.DataBlocks = *dataBlocks
	cfg.OnChipEntries = 1 << 12
	cfg.QueueSize = *queue
	cfg.Channels = *channels
	cfg.FlatLayout = *flat
	cfg.DummyReplaceEnabled = !*noReplace
	cfg.SuperBlock = *superBlock
	cfg.BackgroundEvict = *bgEvict
	cfg.PeriodicIntervalNS = *periodic
	cfg.Seed = *seed
	if *inorder {
		cfg.CoreModel = cpu.InOrder
	}
	switch *cacheKind {
	case "none":
		cfg.Cache = forkoram.SimCacheNone
	case "treetop":
		cfg.Cache = forkoram.SimCacheTreetop
		cfg.CacheBytes = *cacheBytes
	case "mac":
		cfg.Cache = forkoram.SimCacheMAC
		cfg.CacheBytes = *cacheBytes
	default:
		fatalf("unknown cache kind %q", *cacheKind)
	}

	switch {
	case *multi != "":
		cfg.Multithreaded = true
		cfg.Workloads = []string{*multi}
	case *workloads != "":
		cfg.Workloads = strings.Split(*workloads, ",")
	case *mix != "":
		found := false
		for _, m := range workload.Mixes() {
			if m.Name == *mix {
				cfg.Workloads = m.Members[:]
				found = true
			}
		}
		if !found {
			fatalf("unknown mix %q", *mix)
		}
	}
	if !cfg.Multithreaded && len(cfg.Workloads) != cfg.Cores {
		// Repeat or trim to match core count.
		ws := make([]string, cfg.Cores)
		for i := range ws {
			ws[i] = cfg.Workloads[i%len(cfg.Workloads)]
		}
		cfg.Workloads = ws
	}

	res, err := forkoram.RunSimulation(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	printResult(cfg, res)
}

func printResult(cfg forkoram.SimConfig, r forkoram.SimResult) {
	fmt.Printf("scheme            %s\n", r.Scheme)
	fmt.Printf("workloads         %s\n", strings.Join(cfg.Workloads, ","))
	fmt.Printf("execution time    %.3f ms\n", r.ExecNS/1e6)
	fmt.Printf("demand requests   %d (LLC miss rate %.3f)\n", r.DemandRequests, r.LLCMissRate)
	fmt.Printf("ORAM latency      %.0f ns (mean, per data request)\n", r.MeanORAMLatencyNS)
	if r.Scheme != forkoram.SchemeInsecure {
		fmt.Printf("ORAM accesses     %d real + %d dummy (+%d stash-served)\n",
			r.RealAccesses, r.DummyAccesses, r.StashServed)
		fmt.Printf("avg path length   %.2f buckets per phase\n", r.AvgPathBuckets)
		fmt.Printf("DRAM time/access  %.0f ns\n", r.MeanAccessDRAMNS)
		fmt.Printf("stash             mean %.1f, max %d, overflow rate %.5f\n",
			r.Stash.MeanOccupancy, r.Stash.MaxOccupancy, r.Stash.OverflowRate)
	}
	fmt.Printf("DRAM              %d reads, %d writes, %d activations, row hit rate %.3f\n",
		r.DRAM.Reads, r.DRAM.Writes, r.DRAM.Activations,
		float64(r.DRAM.RowHits)/maxf(float64(r.DRAM.RowHits+r.DRAM.RowMisses), 1))
	fmt.Printf("energy            %.3f mJ (DRAM dyn %.3f + background %.3f + controller %.3f)\n",
		r.Energy.TotalMJ(), r.Energy.DRAMDynamicMJ, r.Energy.DRAMBackgroundMJ, r.Energy.ControllerMJ)
	if r.Truncated {
		fmt.Println("WARNING: run truncated by the access safety cap")
	}
}

// runCampaign runs one topology's crash campaign, or every topology's
// for "all", and exits non-zero on any violation.
func runCampaign(name string, seed uint64, schedules int) {
	topos := []forkoram.Topology{forkoram.Topology(name)}
	if name == "all" {
		topos = []forkoram.Topology{forkoram.TopologyDevice, forkoram.TopologySingle, forkoram.TopologySharded, forkoram.TopologyReshard}
	}
	ok := true
	for _, topo := range topos {
		rep := forkoram.RunCampaign(forkoram.CampaignConfig{Seed: seed, Topology: topo, Schedules: schedules})
		fmt.Print(rep.String())
		ok = ok && rep.Ok()
	}
	if !ok {
		os.Exit(1)
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "forksim: "+format+"\n", args...)
	os.Exit(1)
}
