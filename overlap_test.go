package forkoram

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"forkoram/internal/storage"
	"forkoram/internal/wal"
)

// The overlap tests pin where work overlaps — inside the pipelined
// engine, and never between a window's journal Sync and the serial
// engine's device work — as counts of overlapping round trips, never as
// speeds. A simulated remote tier whose Sleep hook never sleeps stands
// in for the medium: the hook only counts the round trips in flight,
// and a journal wrapper counts the Syncs issued while one is.
const (
	// gateReadRTT and gateWriteRTT are the remote tier's configured
	// latencies. Nothing sleeps them; they tell the hook a read round
	// trip from a write one.
	gateReadRTT  = time.Microsecond
	gateWriteRTT = 2 * time.Microsecond
	// gateHangGuard bounds a hold that nothing releases, so code that
	// allows no overlap fails the test instead of hanging it.
	gateHangGuard = 10 * time.Second
)

// rttGate counts simulated remote round trips in flight and journal
// Syncs issued while one is in flight. Nothing is counted before arm,
// so a device's or service's setup traffic stays out of the counts.
// After holdWrite, the next write round trip is held until another
// round trip starts, so any overlap the code allows shows, however the
// host schedules goroutines.
type rttGate struct {
	mu         sync.Mutex
	armed      bool
	holdNext   bool // hold the next write round trip
	waiter     chan struct{}
	expired    bool // the hang guard, not a start, ended the hold
	inFlight   int
	maxFlight  int
	syncs      int
	overlapped int // Syncs that started with a round trip in flight
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

// holdWrite arms a hold on the next write round trip.
func (g *rttGate) holdWrite() {
	g.mu.Lock()
	g.holdNext = true
	g.mu.Unlock()
}

// roundTrip is the RemoteConfig.Sleep hook: one call is one round trip.
func (g *rttGate) roundTrip(d time.Duration) {
	g.mu.Lock()
	if !g.armed {
		g.mu.Unlock()
		return
	}
	g.inFlight++
	g.maxFlight = max(g.maxFlight, g.inFlight)
	if g.waiter != nil {
		close(g.waiter) // this start ends the pending hold
		g.waiter = nil
	}
	var wait chan struct{}
	if g.holdNext && d == gateWriteRTT {
		g.holdNext = false
		wait = make(chan struct{})
		g.waiter = wait
	}
	g.mu.Unlock()
	if wait != nil {
		select {
		case <-wait:
		case <-time.After(gateHangGuard):
			g.mu.Lock()
			g.expired = true
			g.waiter = nil
			g.mu.Unlock()
		}
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
	if g.armed {
		g.syncs++
		if g.inFlight > 0 {
			g.overlapped++
		}
	}
	g.mu.Unlock()
	return j.Store.Sync()
}

// counts returns the gate's tallies.
func (g *rttGate) counts() (maxFlight, syncs, overlapped int, expired bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.maxFlight, g.syncs, g.overlapped, g.expired
}

// TestPipelineOverlapsRoundTrips replaces the multi-core speed guard
// with the property it stood for: a pipelined Batch over a remote tier
// keeps more than one round trip in flight. Each depth also runs pinned
// to one P, since overlapping round trips needs goroutines, not cores.
// The serial engine (depth 1) never has two in flight.
func TestPipelineOverlapsRoundTrips(t *testing.T) {
	for _, procs := range []int{0, 1} {
		for _, depth := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("gomaxprocs%d/depth%d", procs, depth), func(t *testing.T) {
				if procs > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				}
				gate := new(rttGate)
				cfg := DeviceConfig{Blocks: 128, BlockSize: 32, Seed: 3, Variant: Fork, PipelineDepth: depth}
				cfg.Storage.Remote = gate.remote()
				dev, err := NewDevice(cfg)
				if err != nil {
					t.Fatal(err)
				}
				gate.arm()
				if depth > 1 {
					// The serial engine has nothing to release a hold.
					gate.holdWrite()
				}
				ops := make([]BatchOp, 32)
				for i := range ops {
					ops[i] = BatchOp{Addr: uint64(i*3) % 128}
					if i%2 == 0 {
						ops[i].Write, ops[i].Data = true, chaosPayload(32, 9, uint64(i)+1)
					}
				}
				// Batch closes its session before it returns, so every
				// round trip is counted.
				if _, err := dev.Batch(ops); err != nil {
					t.Fatal(err)
				}
				maxFlight, _, _, expired := gate.counts()
				switch {
				case depth == 1 && maxFlight != 1:
					t.Fatalf("GOMAXPROCS %d, serial engine: %d round trips in flight, want exactly 1",
						runtime.GOMAXPROCS(0), maxFlight)
				case depth > 1 && maxFlight < 2:
					t.Fatalf("GOMAXPROCS %d, depth %d: at most %d round trip in flight (hold expired: %v), want >= 2",
						runtime.GOMAXPROCS(0), depth, maxFlight, expired)
				}
				if st := dev.Stats(); depth > 1 && st.Pipeline.Windows == 0 {
					t.Fatalf("depth %d batch never pipelined", depth)
				}
			})
		}
	}
}

// TestWindowSeamSyncsAndTurnarounds pins the run loop's window seams.
// The journal Sync that commits a window is issued between windows:
// at depth 1, where no writeback outlives its Batch, none of two
// consecutive writes' Syncs overlaps a device round trip. At depth 4
// every pipelined window after the first counts a seam turnaround.
func TestWindowSeamSyncsAndTurnarounds(t *testing.T) {
	for _, procs := range []int{0, 1} {
		for _, depth := range []int{1, 4} {
			t.Run(fmt.Sprintf("gomaxprocs%d/depth%d", procs, depth), func(t *testing.T) {
				if procs > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				}
				gate := new(rttGate)
				cfg := testServiceConfig(Fork)
				cfg.CheckpointEvery = 1 << 30
				cfg.Device.PipelineDepth = depth
				cfg.Device.Storage.Remote = gate.remote()
				cfg.WAL = gate.journal(wal.NewMemStore())
				svc, err := NewService(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer svc.Close()
				gate.arm()
				ctx := context.Background()

				for a := uint64(1); a <= 2; a++ {
					if err := svc.Write(ctx, a, chaosPayload(32, 4, a)); err != nil {
						t.Fatal(err)
					}
				}
				_, syncs, overlapped, _ := gate.counts()
				switch {
				case syncs < 2:
					t.Fatalf("%d journal syncs for two writes", syncs)
				case depth == 1 && overlapped != 0:
					t.Fatalf("depth 1: %d syncs overlapped a device round trip, want 0", overlapped)
				}

				// Seam turnarounds: consecutive pipelined windows.
				if depth == 1 {
					return
				}
				before := svc.Stats().Pipeline.WindowTurnarounds
				for i := uint64(0); i < 4; i++ {
					ops := []BatchOp{
						{Addr: 10 + i, Write: true, Data: chaosPayload(32, 5, i+1)},
						{Addr: 20 + i},
					}
					if _, err := svc.Batch(ctx, ops); err != nil {
						t.Fatal(err)
					}
				}
				if err := svc.Close(); err != nil {
					t.Fatal(err)
				}
				if got := svc.Stats().Pipeline.WindowTurnarounds - before; got == 0 {
					t.Fatal("four pipelined windows counted no seam turnaround")
				}
			})
		}
	}
}
