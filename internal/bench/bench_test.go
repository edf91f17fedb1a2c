package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<test>.golden from the tables the tests compute")

// tiny returns options small enough for CI-speed trend checks.
func tiny() Options {
	return Options{DataBlocks: 1 << 18, RequestsPerCore: 800, Mixes: 2, Seed: 1}
}

// golden renders the tables a test computed and compares them byte for
// byte with testdata/<test>.golden; -update rewrites the file instead.
// The harness is deterministic at every scale, so any difference is a
// moved table: the ordering checks state the paper's claims, the
// golden files pin the numbers behind them.
func golden(t *testing.T, tabs ...*Table) {
	t.Helper()
	var got bytes.Buffer
	for _, tab := range tabs {
		if err := tab.Render(&got); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", t.Name()+".golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/bench -update to record it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("table moved from %s (rerun with -update if intended, and say in EXPERIMENTS.md which claim moved):\n--- got ---\n%s--- want ---\n%s",
			path, got.Bytes(), want)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.DataBlocks == 0 || o.RequestsPerCore == 0 || o.Mixes != 10 || o.Seed == 0 {
		t.Fatalf("defaults not filled: %+v", o)
	}
	p := Options{PaperScale: true}.withDefaults()
	if p.DataBlocks != 1<<26 {
		t.Fatalf("paper scale data blocks %d", p.DataBlocks)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"x", "1"}, {"yyyy", "2"}},
		Notes:   "n",
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== demo ==", "long-column", "yyyy", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig10Trends(t *testing.T) {
	res, tab, err := Fig10(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if tab == nil || len(res) != 9 {
		t.Fatalf("expected 9 rows (traditional + 8 queue sizes), got %d", len(res))
	}
	golden(t, tab)
	// Baseline is the full path and the longest.
	base := res[0]
	if base.QueueSize != 0 || base.NormDRAMLat != 1 {
		t.Fatalf("baseline row malformed: %+v", base)
	}
	for i := 1; i < len(res); i++ {
		if res[i].AvgPathBuckets >= base.AvgPathBuckets {
			t.Fatalf("Q=%d path %.2f not below baseline %.2f",
				res[i].QueueSize, res[i].AvgPathBuckets, base.AvgPathBuckets)
		}
	}
	// Monotone decrease in queue size (allowing tiny noise).
	for i := 2; i < len(res); i++ {
		if res[i].AvgPathBuckets > res[i-1].AvgPathBuckets+0.3 {
			t.Fatalf("path length not decreasing: Q=%d %.2f vs Q=%d %.2f",
				res[i].QueueSize, res[i].AvgPathBuckets, res[i-1].QueueSize, res[i-1].AvgPathBuckets)
		}
	}
}

func TestFig11DummiesGrowWithQueue(t *testing.T) {
	res, tab, err := Fig11(tiny())
	if err != nil {
		t.Fatal(err)
	}
	golden(t, tab)
	for _, r := range res {
		if r.Norm[128] < r.Norm[1]-0.02 {
			t.Fatalf("%s: Q=128 total %.3f below Q=1 %.3f", r.Mix, r.Norm[128], r.Norm[1])
		}
	}
}

func TestFig12LatencyImproves(t *testing.T) {
	res, tab, err := Fig12(tiny())
	if err != nil {
		t.Fatal(err)
	}
	golden(t, tab)
	for _, r := range res {
		if r.Norm[64] >= 1 {
			t.Fatalf("%s: Q=64 latency %.3f not below traditional", r.Mix, r.Norm[64])
		}
		if r.Norm[64] >= r.Norm[1] {
			t.Fatalf("%s: scheduling gave no benefit over pure merging (%.3f vs %.3f)",
				r.Mix, r.Norm[64], r.Norm[1])
		}
	}
}

func TestFig13CachesHelp(t *testing.T) {
	res, tab, err := Fig13(tiny())
	if err != nil {
		t.Fatal(err)
	}
	golden(t, tab)
	for _, r := range res {
		if r.Norm["merge only"] >= 1 {
			t.Fatalf("%s: merge only %.3f not below traditional", r.Mix, r.Norm["merge only"])
		}
		if r.Norm["merge+1M MAC"] >= r.Norm["merge only"] {
			t.Fatalf("%s: 1M MAC %.3f did not improve on merge only %.3f",
				r.Mix, r.Norm["merge+1M MAC"], r.Norm["merge only"])
		}
		if r.Norm["merge+1M MAC"] > r.Norm["merge+128K MAC"] {
			t.Fatalf("%s: bigger MAC slower: 1M %.3f vs 128K %.3f",
				r.Mix, r.Norm["merge+1M MAC"], r.Norm["merge+128K MAC"])
		}
	}
}

func TestFig14SlowdownOrdering(t *testing.T) {
	res, tab, err := Fig14(tiny())
	if err != nil {
		t.Fatal(err)
	}
	golden(t, tab)
	for _, r := range res {
		trad := r.Slowdown["traditional"]
		best := r.Slowdown["merge+1M MAC"]
		if trad <= 1 {
			t.Fatalf("%s: traditional slowdown %.2f <= 1", r.Mix, trad)
		}
		if best >= trad {
			t.Fatalf("%s: fork (%.2f) no faster than traditional (%.2f)", r.Mix, best, trad)
		}
	}
}

func TestFig15EnergyOrdering(t *testing.T) {
	res, tab, err := Fig15(tiny())
	if err != nil {
		t.Fatal(err)
	}
	golden(t, tab)
	for _, r := range res {
		if r.Norm["merge+1M MAC"] >= 1 {
			t.Fatalf("%s: fork energy %.3f not below traditional", r.Mix, r.Norm["merge+1M MAC"])
		}
	}
}

func TestFig16InOrderWorse(t *testing.T) {
	o := tiny()
	o.Mixes = 1
	res, tab, err := Fig16(o)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, tab)
	for _, r := range res {
		if r.InOrderDummyFrac <= r.OoODummyFrac {
			t.Fatalf("%s: in-order dummy fraction %.3f <= OoO %.3f",
				r.Mix, r.InOrderDummyFrac, r.OoODummyFrac)
		}
	}
}

func TestFig17aMoreThreadsHelp(t *testing.T) {
	o := tiny()
	o.Mixes = 1
	res, tab, err := Fig17a(o)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, tab)
	if len(res) != 4 {
		t.Fatalf("rows %d want 4", len(res))
	}
	if res[3].Norm >= res[0].Norm {
		t.Fatalf("8 threads (%.3f) not better than 1 thread (%.3f)", res[3].Norm, res[0].Norm)
	}
}

func TestFig17bPathGrowsWithSize(t *testing.T) {
	o := tiny()
	o.Mixes = 1
	o.RequestsPerCore = 500
	res, tab, err := Fig17b(o)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, tab)
	for i := 1; i < len(res); i++ {
		if res[i].PathLen <= res[i-1].PathLen {
			t.Fatalf("path length not growing with ORAM size: %+v", res)
		}
	}
	// Efficiency degrades (normalized latency rises) as the tree deepens.
	if res[len(res)-1].Norm < res[0].Norm-0.02 {
		t.Fatalf("efficiency improved with size: %.3f -> %.3f", res[0].Norm, res[len(res)-1].Norm)
	}
}

func TestFig18FewerChannelsBiggerWin(t *testing.T) {
	o := tiny()
	o.Mixes = 1
	res, tab, err := Fig18(o)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, tab)
	if len(res) != 3 {
		t.Fatalf("rows %d want 3", len(res))
	}
	for _, r := range res {
		if r.Speedup <= 1 {
			t.Fatalf("channels=%d speedup %.2f <= 1", r.Channels, r.Speedup)
		}
	}
}

func TestFig19ParsecImproves(t *testing.T) {
	o := tiny()
	o.RequestsPerCore = 600
	res, tab, err := Fig19(o)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, tab)
	if len(res) < 8 {
		t.Fatalf("only %d PARSEC workloads", len(res))
	}
	better := 0
	for _, r := range res {
		if r.Norm < 1 {
			better++
		}
	}
	if better < len(res)*3/4 {
		t.Fatalf("fork improved only %d/%d PARSEC workloads", better, len(res))
	}
}

func TestAblations(t *testing.T) {
	o := tiny()
	o.Mixes = 1
	dummy, dummyTab, err := AblationDummyReplace(o)
	if err != nil {
		t.Fatal(err)
	}
	if dummy[1].Dummies < dummy[0].Dummies {
		t.Fatalf("disabling replacement reduced dummies: %+v", dummy)
	}
	sched, schedTab, err := AblationScheduling(o)
	if err != nil {
		t.Fatal(err)
	}
	if sched[1].LatencyNS <= sched[0].LatencyNS {
		t.Fatalf("Q=1 (%.0f) not slower than Q=64 (%.0f)", sched[1].LatencyNS, sched[0].LatencyNS)
	}
	_, agingTab, err := AblationAging(o)
	if err != nil {
		t.Fatal(err)
	}
	layout, layoutTab, err := AblationLayout(o)
	if err != nil {
		t.Fatal(err)
	}
	if layout[1].ActsPerAcc <= layout[0].ActsPerAcc {
		t.Fatalf("flat layout (%.2f acts/access) not above subtree (%.2f)",
			layout[1].ActsPerAcc, layout[0].ActsPerAcc)
	}
	golden(t, dummyTab, schedTab, agingTab, layoutTab)
}

func TestRunByName(t *testing.T) {
	o := tiny()
	o.Mixes = 1
	o.RequestsPerCore = 300
	var buf bytes.Buffer
	if err := Run("fig10", o, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 10") {
		t.Fatal("fig10 output missing title")
	}
	if err := Run("nope", o, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestStashStudyTrends(t *testing.T) {
	o := tiny()
	o.RequestsPerCore = 400
	res, tab, err := StashStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	if tab == nil || len(res) != 9 {
		t.Fatalf("expected 9 points, got %d", len(res))
	}
	golden(t, tab)
	byKey := map[[2]int]StashStudyResult{}
	for _, r := range res {
		byKey[[2]int{r.Z, int(r.Utilization * 100)}] = r
	}
	// The paper's safe configuration: Z=4, 50% utilization, C=200.
	if r := byKey[[2]int{4, 50}]; r.OverflowRate > 0 {
		t.Fatalf("Z=4 @ 50%% overflowed: %+v", r)
	}
	// Z=3 at 90% utilization must be clearly worse than Z=4 at 50%.
	if byKey[[2]int{3, 90}].MeanOcc <= byKey[[2]int{4, 50}].MeanOcc {
		t.Fatalf("no degradation at Z=3/90%%: %+v vs %+v",
			byKey[[2]int{3, 90}], byKey[[2]int{4, 50}])
	}
}

func TestTimingAblation(t *testing.T) {
	o := tiny()
	o.Mixes = 1
	res, tab, err := AblationTiming(o)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, tab)
	// Slower slots must not reduce latency.
	if res[len(res)-1].NormLat < res[0].NormLat {
		t.Fatalf("2x pacing reduced latency: %+v", res)
	}
}

func TestSuperBlockAblation(t *testing.T) {
	o := tiny()
	o.RequestsPerCore = 600
	res, tab, err := AblationSuperBlock(o)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, tab)
	// Streaming S=8 must beat streaming S=1 on execution time.
	if res[3].NormLat >= res[0].NormLat {
		t.Fatalf("super blocks did not help streaming: %+v", res[:4])
	}
}
