// Command perfbench is the repository's benchmark of the Fork Path
// service. It drives Service / ShardedService through their public API
// with closed-loop clients, checks every read against a shadow copy,
// and prints end-to-end metrics (or, with --trace 1, per-layer metrics
// from spans taken around the journal, medium and checkpoint stores).
// The last line of standard output is the result as one JSON object.
// See README.md in this directory.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	// A run builds and fills the service at least minSetups times, and
	// keeps on until setupFor has passed or it has done maxSetups, so a
	// quick set-up is timed often enough for a steady median. setup_s is
	// the median; the last service built is the one measured.
	minSetups = 5
	maxSetups = 25
	setupFor  = 1500 * time.Millisecond
	// warmup runs traffic before timing so lazy set-up has finished.
	warmup = 500 * time.Millisecond
	// maxTraced caps the traced part of a --trace 1 run, which keeps every
	// span in memory; the rest of the run is untraced, for comparison.
	maxTraced = 5 * time.Second
	// runLimit bounds one run; past it the process gives up.
	runLimit = 170 * time.Second
	// p999Calls is the fewest calls that give the 99.9th percentile ten
	// samples beyond it.
	p999Calls = 10000
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same op stream")
	seconds := flag.Int("seconds", 10, "length of the measured traffic, in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	root := flag.String("root", ".", "repository root (stamped with its commit and source digest)")
	workdir := flag.String("workdir", "", "directory for the stores a run opens and the span file it writes")
	flag.Parse()
	if *workdir == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workdir, --seconds >= 1 and --trace 0|1")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	stamp := newStamp(w, *seed, *root, *trace == 1)
	line, _ := json.Marshal(map[string]any{"stamp": stamp})
	fmt.Println(string(line))

	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure sets the service up, runs the traffic and checks the results.
func measure(w *workload, seed uint64, d time.Duration, traced bool, workdir string) (*result, error) {
	if err := os.RemoveAll(workdir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(filepath.Join(workdir, "stores"))
	ctx := context.Background()
	tr := newTracer()

	var sys *system
	var cs []*client
	var setups []float64
	start := time.Now()
	for i := 0; moreSetups(i, traced, time.Since(start)); i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, err
			}
		}
		cs = newClients(w, seed)
		t0 := time.Now()
		var err error
		sys, err = setUp(ctx, w, filepath.Join(workdir, "stores", fmt.Sprint(i)), tr, cs)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if err := sys.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: close:", err)
		}
	}()
	sealed := sys.sealedBucketBytes()

	res := &result{Metrics: map[string]metric{}}
	var mismatches uint64
	check := func(p *phase) {
		res.Attempted += p.calls
		res.Failed += p.failed
		mismatches += p.mismatches
		if p.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: first failed call:", p.firstErr)
		}
	}

	wp := runPhase(ctx, sys.front, cs, warmup, tr)
	check(&wp)

	if !traced {
		before, steal0 := sys.snapshot(), readSteal()
		p := runPhase(ctx, sys.front, cs, d, tr)
		after, steal1 := sys.snapshot(), readSteal()
		check(&p)
		endToEnd(res.Metrics, w, &p, before, after, sealed, setups)
		fmt.Printf("host: %.2f%% of CPU time stolen by the hypervisor during the measured phase\n", steal1.sub(steal0))
		p = phase{} // the latency samples are the harness's, not the service's
		// A checkpoint runs after the reply that triggered it; wait for
		// any still in flight so its garbage is not counted.
		if err := sys.quiesce(ctx); err != nil {
			return nil, err
		}
		runtime.GC()
		runtime.GC() // the second cycle also frees what sync.Pool kept from the first
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		// Live bytes, not HeapInuse: how freed objects leave spans
		// fragmented varies run to run by a fifth of the heap.
		res.Metrics["heap_live_mb"] = metric{float64(ms.HeapAlloc) / (1 << 20), "MB"}
		fmt.Printf("heap after GC: %.2f MB live, %.2f MB in in-use spans\n",
			float64(ms.HeapAlloc)/(1<<20), float64(ms.HeapInuse)/(1<<20))
	} else {
		tracedFor := min(d/2, maxTraced)
		plain := runPhase(ctx, sys.front, cs, d-tracedFor, tr)
		check(&plain)
		tr.on.Store(true)
		before := sys.snapshot()
		p := runPhase(ctx, sys.front, cs, tracedFor, tr)
		after := sys.snapshot()
		tr.on.Store(false)
		check(&p)
		spans := tr.spans()
		lt := analyze(spans)
		perLayer(res.Metrics, &p, before, after, lt)
		fmt.Printf("path length L+1: %d buckets\n", sys.shards[0].medium.Tree().Levels())
		lt.printSelfTimes(int64(p.wall))
		plainOps := ratio(float64(plain.ops()), plain.wall.Seconds())
		tracedOps := ratio(float64(p.ops()), p.wall.Seconds())
		fmt.Printf("tracing overhead: untraced %.1f ops/s, traced %.1f ops/s (%.2f%% slower)\n",
			plainOps, tracedOps, 100*(1-ratio(tracedOps, plainOps)))
		path := filepath.Join(workdir, "spans-"+w.name+".tsv")
		if err := writeSpans(path, spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(spans), path)
	}

	for _, c := range cs {
		n, err := c.verify(ctx, sys.front)
		if err != nil {
			return nil, err
		}
		mismatches += n
	}
	if mismatches > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d reads returned a value other than the last acknowledged write\n", mismatches)
	}
	res.Correct = mismatches == 0
	printMetrics(res.Metrics)
	return res, nil
}

// moreSetups reports whether a run that has set up n times in spent
// should set up again.
func moreSetups(n int, traced bool, spent time.Duration) bool {
	if traced {
		return n < 1 // a traced run reports no setup_s
	}
	return n < minSetups || n < maxSetups && spent < setupFor
}

// setUp opens fresh stores, builds the service, writes every block its
// initial value and checkpoints, so the timed phase starts from an
// empty journal.
func setUp(ctx context.Context, w *workload, dir string, tr *tracer, cs []*client) (*system, error) {
	sys, err := build(w, dir, tr)
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = c.load(ctx, sys.front)
		}(i, c)
	}
	wg.Wait()
	err = errors.Join(errs...)
	if err == nil {
		err = sys.front.Checkpoint(ctx)
	}
	if err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

// windows is how many equal stretches the measured phase is cut into.
// Throughput and the median latencies are reported as their median over
// the windows, so a burst of outside load in one window does not move
// them.
const windows = 5

// latencies returns the sorted latencies of the samples of one kind
// that completed in [from, to).
func latencies(ss []sample, write bool, from, to int64) []int64 {
	var out []int64
	for _, s := range ss {
		if s.write == write && s.at >= from && s.at < to {
			out = append(out, s.lat)
		}
	}
	slices.Sort(out)
	return out
}

// endToEnd fills the user-visible metrics of an untraced phase.
// Throughput and medians are the median over the windows. The tail
// percentiles are printed, not reported: on a shared host they swing by
// 2x between minutes-long spells of outside load, wider than any bound.
func endToEnd(m map[string]metric, w *workload, p *phase, before, after snapshot, sealed int, setups []float64) {
	m["setup_s"] = metric{median(setups), "s"}
	span := int64(p.wall) / windows
	var rate, r50, w50 []float64
	for i := int64(0); i < windows; i++ {
		from, to := i*span, (i+1)*span
		if i == windows-1 {
			to = math.MaxInt64 // replies after the deadline count in the last window
		}
		var ops uint64
		for _, s := range p.samples {
			if s.at >= from && s.at < to {
				ops += uint64(s.ops)
			}
		}
		rate = append(rate, float64(ops)/(float64(min(to, int64(p.wall))-from)/1e9))
		r50 = append(r50, pctUs(latencies(p.samples, false, from, to), 0.50))
		w50 = append(w50, pctUs(latencies(p.samples, true, from, to), 0.50))
	}
	m["ops_per_s"] = metric{median(rate), "1/s"}
	m["read_p50_us"] = metric{median(r50), "us"}
	m["write_p50_us"] = metric{median(w50), "us"}

	d := after.counts.sub(before.counts)
	readCalls, _ := p.count(false)
	writeCalls, writeOps := p.count(true)
	user := float64(writeOps) * float64(w.blockSize)
	m["write_amp"] = metric{ratio(float64(d[cBucketWrites])*float64(sealed)+float64(d[cWALBytes]), user), "ratio"}

	fmt.Printf("calls: %d (%d reads, %d writes), ops: %d, failed: %d, error_frac: %g\n",
		p.calls, readCalls, writeCalls, p.ops(), p.failed, ratio(float64(p.failed), float64(p.calls)))
	fmt.Printf("per-window ops/s: %.1f\n", rate)
	reads, writes := latencies(p.samples, false, 0, math.MaxInt64), latencies(p.samples, true, 0, math.MaxInt64)
	fmt.Printf("tails over the phase: read p99 %.1f us, write p99 %.1f us, p999 %s\n",
		pctUs(reads, 0.99), pctUs(writes, 0.99), p999(p.samples))
}

// p999 formats the 99.9th latency percentile over all calls, when the
// phase has enough calls to support it.
func p999(ss []sample) string {
	if len(ss) < p999Calls {
		return fmt.Sprintf("n/a (%d calls, need %d)", len(ss), p999Calls)
	}
	all := slices.Concat(latencies(ss, false, 0, math.MaxInt64), latencies(ss, true, 0, math.MaxInt64))
	slices.Sort(all)
	return fmt.Sprintf("%.1f us", pctUs(all, 0.999))
}

// perLayer fills the per-layer metrics of a traced phase.
func perLayer(m map[string]metric, p *phase, before, after snapshot, lt *layerTimes) {
	d := after.counts.sub(before.counts)
	shards := float64(len(after.stats))
	wall := float64(p.wall)
	_, writeOps := p.count(true)
	ops, writes := float64(p.ops()), float64(writeOps)
	syncs := lt.durations(spanWALSync)
	slices.Sort(syncs)
	m["wal.syncs_per_write"] = metric{ratio(float64(d[cWALSyncs]), writes), "syncs/write"}
	m["wal.sync_p50_us"] = metric{pctUs(syncs, 0.50), "us"}
	m["wal.sync_p99_us"] = metric{pctUs(syncs, 0.99), "us"}
	m["wal.sync_busy_frac"] = metric{float64(lt.total[spanWALSync]) / (wall * shards), "frac"}
	m["wal.bytes_per_write"] = metric{ratio(float64(d[cWALBytes]), writes), "B/write"}
	m["storage.buckets_read_per_op"] = metric{ratio(float64(d[cBucketReads]), ops), "buckets/op"}
	m["storage.buckets_written_per_op"] = metric{ratio(float64(d[cBucketWrites]), ops), "buckets/op"}
	m["storage.read_us_per_bucket"] = metric{ratio(float64(lt.total[spanStorageRead])/1e3, float64(d[cBucketReads])), "us/bucket"}
	m["storage.write_us_per_bucket"] = metric{ratio(float64(lt.total[spanStorageWrite])/1e3, float64(d[cBucketWrites])), "us/bucket"}
	m["storage.busy_frac"] = metric{float64(lt.total[spanStorageRead]+lt.total[spanStorageWrite]) / (wall * shards), "frac"}
	m["fork.accesses_per_op"] = metric{ratio(float64(d[cTraversals]), ops), "accesses/op"}
	m["fork.dummy_frac"] = metric{ratio(float64(d[cDummies]), float64(d[cTraversals])), "frac"}
	m["fork.buckets_per_access"] = metric{ratio(float64(d[cPathReadBuckets]), float64(d[cTraversals])), "buckets"}
	m["ckpt.count"] = metric{float64(d[cCkptSaves]), "count"}
	m["ckpt.save_ms"] = metric{lt.meanMs(spanCkptSave), "ms"}
	m["ckpt.clone_ms"] = metric{lt.meanMs(spanCkptClone), "ms"}
	m["ckpt.bytes"] = metric{ratio(float64(d[cCkptBytes]), float64(d[cCkptSaves])), "B"}

	var groups, grouped, recoveries, stallNs, seams, seamNs float64
	perShard := make([]float64, len(after.stats))
	for i := range after.stats {
		a, b := after.stats[i], before.stats[i]
		groups += float64(a.Groups - b.Groups)
		grouped += float64(a.GroupedOps - b.GroupedOps)
		recoveries += float64(a.Recoveries - b.Recoveries)
		perShard[i] = float64(a.Reads + a.Writes + a.Batches - b.Reads - b.Writes - b.Batches)
		pd := a.Pipeline.Delta(b.Pipeline)
		stallNs += float64(pd.FetchWaitNs + pd.EvictWaitNs + pd.WritebackWaitNs + pd.ServeWaitNs + pd.DepWaitNs)
		seams += float64(pd.WindowTurnarounds)
		seamNs += float64(pd.WindowTurnaroundNs)
	}
	m["service.window_ops"] = metric{ratio(grouped, groups), "requests"}
	m["service.recoveries"] = metric{recoveries, "count"}
	m["service.untimed_frac"] = metric{ratio(float64(lt.untimed), float64(lt.served)), "frac"}
	m["shardedservice.shard_skew"] = metric{ratio(slices.Max(perShard), mean(perShard)), "ratio"}
	m["pathoram.stall_ms"] = metric{stallNs / 1e6, "ms"}
	m["pathoram.seam_us"] = metric{ratio(seamNs, seams) / 1e3, "us"}
}

// pctUs is the q-quantile of sorted ns samples in µs, by nearest rank
// (0 without samples).
func pctUs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)]) / 1e3
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return ratio(t, float64(len(v)))
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Printf("%-32s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// cpuTicks is the total and steal time of the host's "cpu" line in
// /proc/stat (zero where it is not available).
type cpuTicks struct{ total, steal uint64 }

func readSteal() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var t cpuTicks
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// sub returns the stolen share of the ticks since o, in percent.
func (t cpuTicks) sub(o cpuTicks) float64 {
	return 100 * ratio(float64(t.steal-o.steal), float64(t.total-o.total))
}

// newStamp describes where and on what a result was measured.
func newStamp(w *workload, seed uint64, root string, traced bool) map[string]any {
	cpus, procs := runtime.NumCPU(), runtime.GOMAXPROCS(0)
	return map[string]any{
		"workload":       w.name,
		"seed":           seed,
		"traced":         traced,
		"clients":        clients,
		"num_cpu":        cpus,
		"gomaxprocs":     procs,
		"oversubscribed": procs > cpus,
		"go_version":     runtime.Version(),
		"commit":         commit(root),
		"source_sha256":  sourceDigest(root),
		"config_digest":  w.digest(),
	}
}

// commit is the checkout's git revision, or "none" outside a git
// checkout. Git is not asked to look above root.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod under root (hidden
// directories skipped), identifying the code measured when there is no
// git revision.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
