package forkoram

import (
	"testing"
	"time"
)

// TestXWSweepSmoke runs the cross-window sweep at toy scale: every
// depth must measure both run loops, stamp its scheduler width, and
// engage the device pipeline under both. It does NOT
// assert the speedup — on a loaded single-core CI host the toy-scale
// ratio is noise; the performance claim is `make bench-xw`'s job
// (-require-mc at real scale).
func TestXWSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("xw sweep smoke is seconds-long")
	}
	res, err := RunXWSweep(ServiceBenchConfig{
		Ops:           160,
		Clients:       4,
		RemoteLatency: 300 * time.Microsecond,
	}, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(res.Runs))
	}
	run := res.Runs[0]
	if run.Gomaxprocs == 0 || run.NumCPU == 0 {
		t.Fatalf("cell missing gomaxprocs/numcpu stamp: %+v", run)
	}
	if run.Barriered.OpsPerSec <= 0 || run.CrossWindow.OpsPerSec <= 0 {
		t.Fatalf("depth %d measured nothing: %+v", run.Depth, run)
	}
	if run.Speedup <= 0 {
		t.Fatalf("speedup not computed: %+v", run)
	}
	if run.Barriered.Pipeline.Windows == 0 || run.CrossWindow.Pipeline.Windows == 0 {
		t.Fatalf("a side never entered the pipeline: barriered %d windows, xw %d windows",
			run.Barriered.Pipeline.Windows, run.CrossWindow.Pipeline.Windows)
	}
	// The new seam counter must tick in both modes: one turnaround per
	// window seam, measured whether or not the seam barriers.
	if run.Barriered.Pipeline.WindowTurnarounds == 0 || run.CrossWindow.Pipeline.WindowTurnarounds == 0 {
		t.Fatalf("seam turnarounds not counted: barriered %d, xw %d",
			run.Barriered.Pipeline.WindowTurnarounds, run.CrossWindow.Pipeline.WindowTurnarounds)
	}
}
