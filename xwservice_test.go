package forkoram

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"forkoram/internal/wal"
)

// xwServiceConfig is testServiceConfig with cross-window pipelining and
// a pipelined device, so the committer/applier split and the persistent
// device session are both engaged.
func xwServiceConfig() ServiceConfig {
	cfg := testServiceConfig(Fork)
	cfg.Device.QueueSize = 8
	cfg.Device.PipelineDepth = 4
	cfg.CrossWindow = true
	return cfg
}

// TestCrossWindowRoundTrip: basic read-your-writes and stats sanity
// through the committer/applier split.
func TestCrossWindowRoundTrip(t *testing.T) {
	svc, err := NewService(xwServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for a := uint64(0); a < 16; a++ {
		if err := svc.Write(ctx, a, chaosPayload(32, 77, a+1)); err != nil {
			t.Fatalf("write %d: %v", a, err)
		}
	}
	for a := uint64(0); a < 16; a++ {
		got, err := svc.Read(ctx, a)
		if err != nil {
			t.Fatalf("read %d: %v", a, err)
		}
		if !bytes.Equal(got, chaosPayload(32, 77, a+1)) {
			t.Fatalf("addr %d read back wrong data", a)
		}
	}
	if err := svc.Checkpoint(ctx); err != nil {
		t.Fatalf("checkpoint barrier: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Writes != 16 || st.Reads != 16 {
		t.Fatalf("writes %d reads %d, want 16/16", st.Writes, st.Reads)
	}
	if fmt.Sprint(CrashMidWindowSeam) != "mid-window-seam" {
		t.Fatalf("CrashMidWindowSeam stringer: %v", CrashMidWindowSeam)
	}
}

// TestCrossWindowDegenerateWindows drives the seams nothing-to-do paths:
// a window whose every request is invalid (nothing journaled, nothing
// handed to the applier), a checkpoint barrier with no window in
// flight, and a linger window that expires with only its first request
// gathered. The persistent pipeline must drain cleanly through all of
// them — no wedge, no double-retire.
func TestCrossWindowDegenerateWindows(t *testing.T) {
	cfg := xwServiceConfig()
	cfg.GroupLinger = 2 * time.Millisecond
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()

	// Empty window: the sole gathered request fails validation, so the
	// committer journals nothing and hands nothing over.
	if err := svc.Write(ctx, 0, []byte{1, 2, 3}); err == nil || errors.Is(err, errKilled) {
		t.Fatalf("malformed write returned %v, want a validation error", err)
	}
	// Checkpoint barrier with the applier provably idle.
	if err := svc.Checkpoint(ctx); err != nil {
		t.Fatalf("checkpoint on idle seam: %v", err)
	}
	// Linger expiry with nothing else gathered: a lone write must still
	// commit as a singleton window after GroupLinger runs out.
	if err := svc.Write(ctx, 1, chaosPayload(32, 78, 1)); err != nil {
		t.Fatalf("lone lingered write: %v", err)
	}
	got, err := svc.Read(ctx, 1)
	if err != nil || !bytes.Equal(got, chaosPayload(32, 78, 1)) {
		t.Fatalf("lingered write not readable: %v", err)
	}
	// Another invalid-only window right before Close, so teardown runs
	// with the last hand-off being degenerate.
	if err := svc.Write(ctx, 1<<40, chaosPayload(32, 78, 2)); err == nil {
		t.Fatal("out-of-range write was accepted")
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("close after degenerate windows: %v", err)
	}
}

// TestCrossWindowCloseMidSeam: Close arriving while windows are still
// in flight across the seam must drain the committer, the applier, and
// the device pipeline cleanly — every acknowledged write durable — and
// a new incarnation over the same stores must read everything back.
func TestCrossWindowCloseMidSeam(t *testing.T) {
	walStore := wal.NewMemStore()
	ckpts := NewMemCheckpointStore()
	cfg := xwServiceConfig()
	cfg.QueueDepth = 16
	cfg.WAL = walStore
	cfg.Checkpoints = ckpts
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const writers, each = 8, 6
	acked := make([][]uint64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				addr := uint64(w*each + i)
				err := svc.Write(ctx, addr, chaosPayload(32, 99, addr))
				if err == nil {
					acked[w] = append(acked[w], addr)
					continue
				}
				if !errors.Is(err, ErrClosed) {
					t.Errorf("writer %d: %v", w, err)
				}
				return // closed mid-burst: later writes would also be refused
			}
		}(w)
	}
	// Let the burst engage the seam, then close into it.
	time.Sleep(2 * time.Millisecond)
	if err := svc.Close(); err != nil {
		t.Fatalf("close mid-seam: %v", err)
	}
	wg.Wait()

	// Every acknowledged write must be present in the next incarnation.
	cfg2 := xwServiceConfig()
	cfg2.WAL = walStore
	cfg2.Checkpoints = ckpts
	svc2, err := NewService(cfg2)
	if err != nil {
		t.Fatalf("reopen after mid-seam close: %v", err)
	}
	defer svc2.Close()
	n := 0
	for w := range acked {
		for _, addr := range acked[w] {
			got, err := svc2.Read(ctx, addr)
			if err != nil {
				t.Fatalf("reopened read %d: %v", addr, err)
			}
			if !bytes.Equal(got, chaosPayload(32, 99, addr)) {
				t.Fatalf("acked write %d lost across mid-seam close", addr)
			}
			n++
		}
	}
	t.Logf("%d acked writes survived a mid-seam close", n)
}

// TestCrossWindowOverlapsCommit pins the tentpole's mechanism at the
// service layer: with the committer/applier split, a window's journal
// sync may complete while the previous window is still executing, so
// the turnaround stalls the device pipeline reports must shrink to
// (nearly) nothing — the seam is primed, not barriered. The test only
// asserts the machinery engaged (windows flowed, syncs amortized);
// TestCrossWindowSyncOverlapsApply pins the overlap itself.
func TestCrossWindowOverlapsCommit(t *testing.T) {
	cfg := xwServiceConfig()
	cfg.QueueDepth = 16
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const rounds, writers = 20, 4
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if err := svc.Write(ctx, uint64(w), chaosPayload(32, uint64(r), uint64(w)+1)); err != nil {
					t.Error(err)
				}
			}(w)
		}
		wg.Wait()
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Writes != rounds*writers {
		t.Fatalf("writes %d, want %d", st.Writes, rounds*writers)
	}
	if st.WALSyncs >= st.Writes {
		t.Fatal("cross-window mode lost group-commit sync amortization")
	}
	if st.Pipeline.Windows == 0 {
		t.Fatalf("device pipeline never engaged: %+v", st.Pipeline)
	}
}

// TestBurstLingerCoalesces pins the explicit first-request linger that
// replaced the scheduler-yield coalescing hack: with no GroupLinger at
// all, a second write landing within BurstLinger of the first must
// still share its window and its sync — on any host, not just a
// single-P runtime.
func TestBurstLingerCoalesces(t *testing.T) {
	cfg := testServiceConfig(Fork)
	cfg.QueueDepth = 8
	cfg.GroupLinger = 0
	cfg.BurstLinger = 300 * time.Millisecond
	cfg.CheckpointEvery = 1 << 30
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w == 1 {
				time.Sleep(20 * time.Millisecond) // inside the burst linger
			}
			if err := svc.Write(ctx, uint64(w), chaosPayload(32, 5, uint64(w)+1)); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	st := svc.Stats()
	if st.Groups != 1 || st.GroupedOps != 2 || st.WALSyncs != 1 {
		t.Fatalf("burst linger did not coalesce: groups %d, grouped ops %d, syncs %d",
			st.Groups, st.GroupedOps, st.WALSyncs)
	}

	// Disabled linger (negative): the same 20ms-apart pair must now
	// commit as two singleton windows with two syncs.
	cfg2 := testServiceConfig(Fork)
	cfg2.QueueDepth = 8
	cfg2.GroupLinger = 0
	cfg2.BurstLinger = -1
	cfg2.CheckpointEvery = 1 << 30
	svc2, err := NewService(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w == 1 {
				time.Sleep(20 * time.Millisecond)
			}
			if err := svc2.Write(ctx, uint64(w), chaosPayload(32, 6, uint64(w)+1)); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	if st := svc2.Stats(); st.Groups != 2 || st.WALSyncs != 2 {
		t.Fatalf("disabled burst linger still coalesced: groups %d, syncs %d", st.Groups, st.WALSyncs)
	}
}

// TestBurstCoalescingFewCores is the few-core regression for the
// replaced Gosched hack: pinned to a single P, concurrent writer bursts
// must still form multi-op windows through the default burst linger.
func TestBurstCoalescingFewCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := testServiceConfig(Fork)
	cfg.QueueDepth = 8
	cfg.CheckpointEvery = 1 << 30
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	const rounds, writers = 25, 4
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if err := svc.Write(ctx, uint64(w), chaosPayload(32, uint64(r)+40, uint64(w)+1)); err != nil {
					t.Error(err)
				}
			}(w)
		}
		wg.Wait()
	}
	st := svc.Stats()
	if st.Groups == st.Writes {
		t.Fatal("single-P bursts never coalesced: every window was a singleton")
	}
	if st.WALSyncs >= st.Writes {
		t.Fatalf("%d syncs for %d writes on one P: coalescing regressed", st.WALSyncs, st.Writes)
	}
}
