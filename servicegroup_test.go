package forkoram

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"forkoram/internal/rng"
)

// TestGroupCommitCoalesces: concurrent writers racing the admission
// queue must be served in multi-request windows — fewer journal syncs
// than writes, every op accounted to exactly one group.
func TestGroupCommitCoalesces(t *testing.T) {
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
				if err := svc.Write(ctx, uint64(w), chaosPayload(32, uint64(r), uint64(w)+1)); err != nil {
					t.Error(err)
				}
			}(w)
		}
		wg.Wait()
	}
	st := svc.Stats()
	const total = rounds * writers
	if st.Writes != total || st.GroupedOps != total {
		t.Fatalf("writes %d, grouped ops %d, want %d", st.Writes, st.GroupedOps, total)
	}
	if st.WALSyncs >= total {
		t.Fatalf("%d syncs for %d writes: group commit never amortized a sync", st.WALSyncs, total)
	}
	if st.Groups == st.Writes {
		t.Fatal("every window was a singleton: coalescing never engaged")
	}
	var hist uint64
	for _, n := range st.GroupSizes {
		hist += n
	}
	if hist != st.Groups {
		t.Fatalf("histogram holds %d windows, Groups says %d", hist, st.Groups)
	}
	t.Logf("%d writes in %d groups, %d syncs, hist %v", st.Writes, st.Groups, st.WALSyncs, st.GroupSizes)
}

// TestGroupMaxSizeBound: with a deterministic backlog larger than
// QueueDepth, no dispatch window may exceed QueueDepth.
func TestGroupMaxSizeBound(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	cfg := testServiceConfig(Fork)
	cfg.QueueDepth = 2
	cfg.CheckpointEvery = 1 << 30
	cfg.crashHook = blockingHook(entered, gate)
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := svc.Write(ctx, 0, chaosPayload(32, 1, 1)); err != nil {
			t.Error(err)
		}
	}()
	// Worker held inside write 0; build a 6-deep backlog behind it: two
	// queued, the rest blocked on admission and refilling the queue as
	// the worker drains it.
	<-entered
	for w := 1; w <= 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := svc.Write(ctx, uint64(w), chaosPayload(32, 1, uint64(w)+1)); err != nil {
				t.Error(err)
			}
		}(w)
	}
	// Admission is a buffered channel send, so "queued" is observable only
	// indirectly; give the senders a moment, then release the worker.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	st := svc.Stats()
	if st.Writes != 7 {
		t.Fatalf("writes %d, want 7", st.Writes)
	}
	for b := 2; b < len(st.GroupSizes); b++ {
		if st.GroupSizes[b] != 0 {
			t.Fatalf("window larger than QueueDepth=2 dispatched: hist %v", st.GroupSizes)
		}
	}
	if st.GroupSizes[1] == 0 {
		t.Fatalf("backlog of 6 never produced a size-2 window: hist %v", st.GroupSizes)
	}
}

// TestGroupFairnessReaderNotStarved: a saturating writer pool must not
// starve a reader — FIFO admission puts every read in the next window,
// so all reads complete while the writers keep hammering.
func TestGroupFairnessReaderNotStarved(t *testing.T) {
	cfg := testServiceConfig(Fork)
	cfg.QueueDepth = 8
	cfg.CheckpointEvery = 1 << 30
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(1); !stop.Load(); i++ {
				if err := svc.Write(ctx, uint64(w), chaosPayload(32, uint64(w), i)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	// The reader owns addr 60, which no writer touches: every read must
	// return the zero block, promptly, under full write saturation.
	done := make(chan struct{})
	go func() {
		defer close(done)
		zero := make([]byte, 32)
		for i := 0; i < 50; i++ {
			got, err := svc.Read(ctx, 60)
			if err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
			if !bytes.Equal(got, zero) {
				t.Errorf("read %d returned non-zero block", i)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Error("reader starved: 50 reads did not complete under write saturation")
	}
	stop.Store(true)
	wg.Wait()
	if st := svc.Stats(); st.Reads < 50 {
		t.Fatalf("reads %d, want >= 50", st.Reads)
	}
}

// TestGroupInvalidOpIsolated: an invalid request coalesced into a
// window is answered with its own validation error without poisoning
// its neighbours (which must commit durably and be acknowledged).
func TestGroupInvalidOpIsolated(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	cfg := testServiceConfig(Fork)
	cfg.QueueDepth = 8
	cfg.CheckpointEvery = 1 << 30
	cfg.crashHook = blockingHook(entered, gate)
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := svc.Write(ctx, 0, chaosPayload(32, 3, 1)); err != nil {
			t.Error(err)
		}
	}()
	<-entered
	var badErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		badErr = svc.Write(ctx, 1, []byte{1, 2, 3}) // wrong payload size
	}()
	for w := 2; w <= 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := svc.Write(ctx, uint64(w), chaosPayload(32, 3, uint64(w))); err != nil {
				t.Errorf("write %d: %v", w, err)
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	if badErr == nil || errors.Is(badErr, errKilled) {
		t.Fatalf("malformed write in a group returned %v, want a validation error", badErr)
	}
	for w := 2; w <= 4; w++ {
		got, err := svc.Read(ctx, uint64(w))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, chaosPayload(32, 3, uint64(w))) {
			t.Fatalf("write %d lost after sharing a window with an invalid op", w)
		}
	}
}

// TestGroupMixedKindsInterleave: batches, writes, and reads from many
// goroutines — with disjoint address ranges so each can assert
// read-your-writes — exercising mixed-kind windows and the span-based
// result distribution under -race.
func TestGroupMixedKindsInterleave(t *testing.T) {
	cfg := testServiceConfig(Fork)
	cfg.QueueDepth = 8
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG, rounds = 6, 8, 18
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			base := uint64(g * perG)
			last := make(map[uint64][]byte)
			for i := 0; i < rounds; i++ {
				switch i % 3 {
				case 0: // write
					addr := base + uint64(i)%perG
					data := chaosPayload(32, uint64(g)+10, uint64(i)+1)
					if err := svc.Write(ctx, addr, data); err != nil {
						t.Errorf("g%d write: %v", g, err)
						return
					}
					last[addr] = data
				case 1: // batch: one write + one read-back of an own address
					wa, ra := base+uint64(i)%perG, base+uint64(i+1)%perG
					data := chaosPayload(32, uint64(g)+20, uint64(i)+1)
					out, err := svc.Batch(ctx, []BatchOp{
						{Addr: wa, Write: true, Data: data},
						{Addr: ra},
					})
					if err != nil {
						t.Errorf("g%d batch: %v", g, err)
						return
					}
					last[wa] = data
					want := last[ra]
					if want == nil {
						want = make([]byte, 32)
					}
					if !bytes.Equal(out[1], want) {
						t.Errorf("g%d batch read diverged at addr %d", g, ra)
						return
					}
				default: // read
					addr := base + uint64(i)%perG
					got, err := svc.Read(ctx, addr)
					if err != nil {
						t.Errorf("g%d read: %v", g, err)
						return
					}
					want := last[addr]
					if want == nil {
						want = make([]byte, 32)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("g%d lost write at addr %d", g, addr)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if want := uint64(goroutines * rounds); st.GroupedOps != want {
		t.Fatalf("grouped ops %d, want %d (every request in exactly one window)", st.GroupedOps, want)
	}
}

// TestBurstLingerCoalesces pins the explicit first-request linger that
// replaced the scheduler-yield coalescing hack: a second write landing
// within BurstLinger of the first must still share its window and its
// sync — on any host, not just a single-P runtime.
func TestBurstLingerCoalesces(t *testing.T) {
	cfg := testServiceConfig(Fork)
	cfg.QueueDepth = 8
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

// TestWindowOfOneTraversesLikeDevice: a Service whose windows hold one
// request each (QueueDepth 1) reaches the Fork engine exactly as a bare
// Device's Read and Write do. The stream revisits the previous address
// about a third of the time, so the Step-1 stash shortcut (a repeat of
// the held access's address begins no traversal) decides many of its
// ops: a one-op window that admitted its request through the label
// queue would traverse far more often. Results and bus traces must be
// identical, and every request must have been group-committed.
func TestWindowOfOneTraversesLikeDevice(t *testing.T) {
	const blocks, blockSize, ops = 8192, 16, 3000
	var svcTr, devTr obsTrace
	dc := DeviceConfig{Blocks: blocks, BlockSize: blockSize, Variant: Fork, Seed: 21}
	sc := dc
	sc.Observer = svcTr.hook()
	svc, err := NewService(ServiceConfig{Device: sc, QueueDepth: 1, CheckpointEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	dc.Observer = devTr.hook()
	d, err := NewDevice(dc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	src := rng.New(5)
	prev := uint64(0)
	for i := 0; i < ops; i++ {
		addr := src.Uint64n(blocks)
		if src.Uint64n(3) == 0 {
			addr = prev
		}
		prev = addr
		if src.Uint64n(2) == 0 {
			data := bytes.Repeat([]byte{byte(i), byte(i >> 8)}, blockSize/2)
			if err := svc.Write(ctx, addr, data); err != nil {
				t.Fatal(err)
			}
			if err := d.Write(addr, data); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := svc.Read(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("op %d: service read %x at %d, device read %x", i, got, addr, want)
		}
	}
	// Both complete the held refill: Stats on the device, the final
	// checkpoint on the service.
	d.Stats()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Groups != ops || st.GroupSizes[0] != ops {
		t.Fatalf("%d groups (%d of one request) for %d requests", st.Groups, st.GroupSizes[0], ops)
	}
	t.Logf("%d traversals for %d ops", len(devTr.labels), ops)
	if err := devTr.equal(&svcTr); err != nil {
		t.Fatalf("service trace diverged from the device's: %v", err)
	}
}
