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

	"forkoram/internal/storage"
	"forkoram/internal/wal"
)

// The overlap tests pin, as counts and orderings, never as speeds, that
// a write window's journal Sync runs while the device applies the same
// window, and that nothing is answered before that Sync returns. A
// simulated remote tier whose Sleep hook never sleeps stands in for the
// medium: the hook only counts the round trips in flight. Every wait
// has a deadline, so a broken overlap fails a test instead of hanging
// it.
const (
	// gateReadRTT and gateWriteRTT are the remote tier's configured
	// latencies. Nothing sleeps them.
	gateReadRTT  = time.Microsecond
	gateWriteRTT = 2 * time.Microsecond
	// overlapDeadline bounds every wait of the overlap tests.
	overlapDeadline = 5 * time.Second
)

// rttGate counts simulated remote round trips in flight and journal
// Syncs issued while one is in flight. Nothing is counted before arm,
// so a service's setup traffic stays out of the counts.
//
// Between window and the Sync that follows it, the gate also holds a
// rendezvous: the first round trip waits until the Sync has started,
// and the Sync waits until that round trip is in flight. A Sync issued
// before the window's apply, or after it, misses the rendezvous, and
// the wait that hit its deadline is recorded in missed.
type rttGate struct {
	mu         sync.Mutex
	armed      bool
	inFlight   int
	maxFlight  int
	trips      int // round trips started while armed
	syncs      int
	overlapped int // Syncs that started with a round trip in flight
	missed     []string

	tripIn  chan struct{} // closed by the window's first round trip
	syncIn  chan struct{} // closed by the window's Sync
	claimed bool          // the window's first round trip has arrived
}

// remote is the remote-tier configuration routing every round trip
// through the gate.
func (g *rttGate) remote() *storage.RemoteConfig {
	return &storage.RemoteConfig{
		ReadLatency:  gateReadRTT,
		WriteLatency: gateWriteRTT,
		Sleep:        g.roundTrip,
	}
}

func (g *rttGate) arm() {
	g.mu.Lock()
	g.armed = true
	g.mu.Unlock()
}

// window opens the rendezvous of the next write window.
func (g *rttGate) window() {
	g.mu.Lock()
	g.tripIn, g.syncIn, g.claimed = make(chan struct{}), make(chan struct{}), false
	g.mu.Unlock()
}

// await waits for ch until the deadline, and records a miss if it hits.
func (g *rttGate) await(ch <-chan struct{}, what string) {
	timer := time.NewTimer(overlapDeadline)
	defer timer.Stop()
	select {
	case <-ch:
	case <-timer.C:
		g.mu.Lock()
		g.missed = append(g.missed, what)
		g.mu.Unlock()
	}
}

// roundTrip is the RemoteConfig.Sleep hook: one call is one round trip.
func (g *rttGate) roundTrip(time.Duration) {
	g.mu.Lock()
	if !g.armed {
		g.mu.Unlock()
		return
	}
	g.inFlight++
	g.trips++
	g.maxFlight = max(g.maxFlight, g.inFlight)
	first := g.tripIn != nil && !g.claimed
	if first {
		g.claimed = true
		close(g.tripIn)
	}
	syncIn := g.syncIn
	g.mu.Unlock()
	if first {
		g.await(syncIn, "a window's first round trip waited for its journal Sync")
	}
	g.mu.Lock()
	g.inFlight--
	g.mu.Unlock()
}

// journal wraps a journal store so its Syncs are counted against the
// round trips in flight.
func (g *rttGate) journal(inner wal.Store) wal.Store { return &gateJournal{Store: inner, g: g} }

type gateJournal struct {
	wal.Store
	g *rttGate
}

func (j *gateJournal) Sync() error {
	g := j.g
	g.mu.Lock()
	armed, tripIn := g.armed, g.tripIn
	g.mu.Unlock()
	if armed && tripIn != nil {
		g.await(tripIn, "a journal Sync waited for a round trip of its window")
	}
	g.mu.Lock()
	if g.armed {
		g.syncs++
		if g.inFlight > 0 {
			g.overlapped++
		}
	}
	if g.syncIn != nil {
		close(g.syncIn)
		g.tripIn, g.syncIn = nil, nil
	}
	g.mu.Unlock()
	return j.Store.Sync()
}

// gateCounts is a snapshot of the gate's tallies.
type gateCounts struct {
	maxFlight, trips, syncs, overlapped int
	missed                              []string
}

func (g *rttGate) counts() gateCounts {
	g.mu.Lock()
	defer g.mu.Unlock()
	return gateCounts{g.maxFlight, g.trips, g.syncs, g.overlapped, append([]string(nil), g.missed...)}
}

// TestWindowSyncOverlapsItsApply pins the overlap of a write window's
// journal Sync with its own Device.Batch. Each write window meets the
// gate's rendezvous: its first device round trip waits until its Sync
// has started, and the Sync until that round trip is in flight. Every
// write window must issue its Sync with a round trip in flight, and the
// device keeps at most one round trip in flight. The GOMAXPROCS 1 row
// holds too: the run loop blocks in the hook, so the syncer can run.
func TestWindowSyncOverlapsItsApply(t *testing.T) {
	for _, procs := range []int{0, 1} {
		t.Run(fmt.Sprintf("gomaxprocs%d", procs), func(t *testing.T) {
			if procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			}
			gate := new(rttGate)
			cfg := testServiceConfig(Fork)
			cfg.CheckpointEvery = 1 << 30
			cfg.Device.Storage.Remote = gate.remote()
			cfg.WAL = gate.journal(wal.NewMemStore())
			svc, err := NewService(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			gate.arm()
			ctx := context.Background()

			const writes = 2
			for a := uint64(1); a <= writes; a++ {
				gate.window()
				if err := svc.Write(ctx, a, chaosPayload(32, 4, a)); err != nil {
					t.Fatal(err)
				}
			}
			c := gate.counts()
			switch {
			case len(c.missed) > 0:
				t.Fatalf("rendezvous missed: %v", c.missed)
			case c.syncs != writes:
				t.Fatalf("%d journal syncs for %d write windows", c.syncs, writes)
			case c.overlapped != c.syncs:
				t.Fatalf("%d of %d syncs overlapped a device round trip, want all", c.overlapped, c.syncs)
			case c.maxFlight != 1:
				t.Fatalf("GOMAXPROCS %d: %d round trips in flight, want exactly 1",
					runtime.GOMAXPROCS(0), c.maxFlight)
			}
		})
	}
}

// heldJournal is a journal store whose Syncs, once armed, a test holds
// open and then releases with a result: nil syncs the buffered records,
// an error leaves them unsynced and is returned.
type heldJournal struct {
	*wal.MemStore
	mu      sync.Mutex
	armed   bool
	entered chan struct{} // one value per armed Sync that starts
	release chan error
}

func newHeldJournal() *heldJournal {
	return &heldJournal{MemStore: wal.NewMemStore(), entered: make(chan struct{}, 1), release: make(chan error)}
}

// unblock disarms the journal and lets a held Sync return, so a test
// that failed while holding one can still close its service.
func (j *heldJournal) unblock() {
	j.arm(false)
	close(j.release)
}

func (j *heldJournal) arm(on bool) {
	j.mu.Lock()
	j.armed = on
	j.mu.Unlock()
}

func (j *heldJournal) Sync() error {
	j.mu.Lock()
	armed := j.armed
	j.mu.Unlock()
	if armed {
		j.entered <- struct{}{}
		if err := <-j.release; err != nil {
			return err
		}
	}
	return j.MemStore.Sync()
}

// awaitSync waits until an armed Sync is held.
func (j *heldJournal) awaitSync(t *testing.T) {
	t.Helper()
	select {
	case <-j.entered:
	case <-time.After(overlapDeadline):
		t.Fatal("no journal Sync started")
	}
}

// awaitQueued waits until n requests sit in the admission queue.
func awaitQueued(t *testing.T, svc *Service, n int) {
	t.Helper()
	for deadline := time.Now().Add(overlapDeadline); len(svc.q) < n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests queued, want %d", len(svc.q), n)
		}
	}
}

// TestNoAckBeforeSyncReturns holds a write window's journal Sync open.
// The window's round trips run while the Sync is held, as the gate
// counts them, but the write's caller does not return, and neither does
// a read of the same address submitted meanwhile. Once the Sync
// returns, both calls return and the read sees the new value.
func TestNoAckBeforeSyncReturns(t *testing.T) {
	gate := new(rttGate)
	journal := newHeldJournal()
	cfg := testServiceConfig(Fork)
	cfg.CheckpointEvery = 1 << 30
	cfg.Device.Storage.Remote = gate.remote()
	cfg.WAL = journal
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	defer journal.unblock()
	ctx := context.Background()
	// A block the device has not touched yet: its write must traverse.
	const addr = 3
	gate.arm()
	journal.arm(true)
	want := chaosPayload(32, 5, 2)
	wrote := make(chan error, 1)
	go func() { wrote <- svc.Write(ctx, addr, want) }()
	journal.awaitSync(t)
	for deadline := time.Now().Add(overlapDeadline); gate.counts().trips == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("no device round trip while the window's Sync was held")
		}
	}
	type readResult struct {
		data []byte
		err  error
	}
	read := make(chan readResult, 1)
	go func() {
		data, err := svc.Read(ctx, addr)
		read <- readResult{data, err}
	}()
	awaitQueued(t, svc, 1)
	select {
	case err := <-wrote:
		t.Fatalf("write returned (err %v) while its journal Sync was held", err)
	case r := <-read:
		t.Fatalf("read returned (err %v) while the write's journal Sync was held", r.err)
	case <-time.After(50 * time.Millisecond):
	}
	journal.release <- nil
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if r := <-read; r.err != nil || !bytes.Equal(r.data, want) {
		t.Fatalf("read after the sync: err %v, new value %v", r.err, bytes.Equal(r.data, want))
	}
}

var errSyncDisk = errors.New("injected journal sync error")

// TestFailedSyncAfterApply fails a window's journal Sync after the
// window was applied. Every request of the window gets the error, and
// the journal heal commits one checkpoint. Write's contract allows what
// follows: on error a write may or may not have been applied, and here
// it was, so the failed write reads as its new value, in the service
// and after a reopen, because the heal's checkpoint captured the
// applied window. The next write succeeds, and every acknowledged write
// reads back after Close and a reopen.
func TestFailedSyncAfterApply(t *testing.T) {
	journal := newHeldJournal()
	ckpts := NewMemCheckpointStore()
	cfg := testServiceConfig(Fork)
	cfg.CheckpointEvery = 1 << 30
	cfg.WAL = journal
	cfg.Checkpoints = ckpts
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	defer journal.unblock()
	ctx := context.Background()
	if err := svc.Write(ctx, 2, chaosPayload(32, 6, 1)); err != nil {
		t.Fatal(err)
	}
	acked := map[uint64][]byte{}

	// Hold the first window's Sync, so that a write and a read of its
	// address queue behind it and form the next window.
	journal.arm(true)
	acked[4] = chaosPayload(32, 6, 2)
	first := make(chan error, 1)
	go func() { first <- svc.Write(ctx, 4, acked[4]) }()
	journal.awaitSync(t)
	failed := chaosPayload(32, 6, 3)
	wrote := make(chan error, 1)
	go func() { wrote <- svc.Write(ctx, 2, failed) }()
	awaitQueued(t, svc, 1)
	read := make(chan error, 1)
	go func() {
		_, err := svc.Read(ctx, 2)
		read <- err
	}()
	awaitQueued(t, svc, 2)
	journal.release <- nil
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	journal.awaitSync(t)
	ckptsBefore := svc.Stats().Checkpoints
	journal.arm(false)
	journal.release <- errSyncDisk
	if err := <-wrote; !errors.Is(err, errSyncDisk) {
		t.Fatalf("write of the failed window: %v", err)
	}
	if err := <-read; !errors.Is(err, errSyncDisk) {
		t.Fatalf("read of the failed window: %v", err)
	}
	if got := svc.Stats().Checkpoints; got != ckptsBefore+1 {
		t.Fatalf("heal committed %d checkpoints, want 1", got-ckptsBefore)
	}
	acked[7] = chaosPayload(32, 6, 4)
	if err := svc.Write(ctx, 7, acked[7]); err != nil {
		t.Fatalf("write after the failed sync: %v", err)
	}
	check := func(svc *Service) {
		t.Helper()
		for addr, want := range acked {
			if got, err := svc.Read(ctx, addr); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("addr %d: acknowledged write lost (err %v)", addr, err)
			}
		}
		if got, err := svc.Read(ctx, 2); err != nil || !bytes.Equal(got, failed) {
			t.Fatalf("the applied window's failed write does not read as its new value (err %v)", err)
		}
	}
	check(svc)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	cfg2 := testServiceConfig(Fork)
	cfg2.WAL, cfg2.Checkpoints = journal, ckpts
	svc2, err := NewService(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	check(svc2)
}
