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

// The overlap test pins that no work overlaps between a window's
// journal Sync and the device's round trips, as counts, never as
// speeds. A simulated remote tier whose Sleep hook never sleeps stands
// in for the medium: the hook only counts the round trips in flight,
// and a journal wrapper counts the Syncs issued while one is.
const (
	// gateReadRTT and gateWriteRTT are the remote tier's configured
	// latencies. Nothing sleeps them.
	gateReadRTT  = time.Microsecond
	gateWriteRTT = 2 * time.Microsecond
)

// rttGate counts simulated remote round trips in flight and journal
// Syncs issued while one is in flight. Nothing is counted before arm,
// so a service's setup traffic stays out of the counts.
type rttGate struct {
	mu         sync.Mutex
	armed      bool
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

// roundTrip is the RemoteConfig.Sleep hook: one call is one round trip.
func (g *rttGate) roundTrip(time.Duration) {
	g.mu.Lock()
	if !g.armed {
		g.mu.Unlock()
		return
	}
	g.inFlight++
	g.maxFlight = max(g.maxFlight, g.inFlight)
	g.mu.Unlock()
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
func (g *rttGate) counts() (maxFlight, syncs, overlapped int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.maxFlight, g.syncs, g.overlapped
}

// TestWindowSeamSyncsAndTurnarounds pins the run loop's window seams.
// The journal Sync that commits a window is issued between windows, and
// the device keeps at most one round trip in flight, so none of two
// consecutive writes' Syncs overlaps a device round trip. Each row also
// runs pinned to one P. The subtest names keep the depth1 segment of
// the serial engine's rows, so the test ids stay stable.
func TestWindowSeamSyncsAndTurnarounds(t *testing.T) {
	for _, procs := range []int{0, 1} {
		t.Run(fmt.Sprintf("gomaxprocs%d/depth1", procs), func(t *testing.T) {
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

			for a := uint64(1); a <= 2; a++ {
				if err := svc.Write(ctx, a, chaosPayload(32, 4, a)); err != nil {
					t.Fatal(err)
				}
			}
			maxFlight, syncs, overlapped := gate.counts()
			switch {
			case syncs < 2:
				t.Fatalf("%d journal syncs for two writes", syncs)
			case overlapped != 0:
				t.Fatalf("%d syncs overlapped a device round trip, want 0", overlapped)
			case maxFlight != 1:
				t.Fatalf("GOMAXPROCS %d: %d round trips in flight, want exactly 1",
					runtime.GOMAXPROCS(0), maxFlight)
			}
		})
	}
}
