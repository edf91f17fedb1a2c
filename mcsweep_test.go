package forkoram

import (
	"runtime"
	"testing"
	"time"
)

// TestMCSweepSmoke runs the multi-core pipeline sweep at toy scale:
// every (gomaxprocs, depth) cell must measure a positive rate, every
// entry must be stamped with the GOMAXPROCS it actually ran under, and
// the pipelined cells must beat the depth-1 serial baseline on
// overlapped simulated-remote round trips.
func TestMCSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("mc sweep smoke is seconds-long")
	}
	res, err := RunMCSweep(ServiceBenchConfig{
		Ops:           160,
		Clients:       4,
		RemoteLatency: 300 * time.Microsecond,
	}, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOMAXPROCS(0) != res.NumCPU && runtime.GOMAXPROCS(0) == 1 {
		t.Fatalf("sweep leaked GOMAXPROCS override: now %d", runtime.GOMAXPROCS(0))
	}
	if len(res.Runs) != 6 {
		t.Fatalf("got %d runs, want 6", len(res.Runs))
	}
	for _, run := range res.Runs {
		if run.Gomaxprocs == 0 || run.NumCPU == 0 {
			t.Fatalf("cell missing gomaxprocs/numcpu stamp: %+v", run)
		}
		if run.Run.OpsPerSec <= 0 {
			t.Fatalf("cell gmp=%d depth=%d measured nothing", run.Gomaxprocs, run.Depth)
		}
		if run.Depth >= 2 && run.Run.Pipeline.Windows == 0 {
			t.Errorf("pipelined cell gmp=%d depth=%d never entered the pipeline", run.Gomaxprocs, run.Depth)
		}
	}
	if res.BestDepth < 2 {
		t.Fatalf("best cell is not pipelined: %+v", res)
	}
	// With per-bulk-call remote RTTs dominating, overlapping fetches and
	// writebacks across in-flight accesses must beat serial depth 1 even
	// on one core; the acceptance bar for the real sweep is 1.3x.
	if res.BestSpeedup < 1.3 {
		t.Errorf("best pipelined speedup %.2fx < 1.3x (gmp=%d depth=%d)",
			res.BestSpeedup, res.BestGomaxprocs, res.BestDepth)
	}
}
