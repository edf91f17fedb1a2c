package forkoram

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"testing"

	"forkoram/internal/faults"
	"forkoram/internal/rng"
	"forkoram/internal/wal"
)

func testServiceConfig(v Variant) ServiceConfig {
	return ServiceConfig{
		Device: DeviceConfig{
			Blocks:    64,
			BlockSize: 32,
			QueueSize: 4,
			Seed:      7,
			Variant:   v,
		},
		CheckpointEvery: 16,
	}
}

func TestServiceRoundTrip(t *testing.T) {
	for _, v := range []Variant{Baseline, Fork} {
		t.Run(fmt.Sprint(v), func(t *testing.T) {
			svc, err := NewService(testServiceConfig(v))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			data := chaosPayload(32, 1, 1)
			if err := svc.Write(ctx, 3, data); err != nil {
				t.Fatal(err)
			}
			got, err := svc.Read(ctx, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("read-your-writes failed")
			}
			d2 := chaosPayload(32, 1, 2)
			out, err := svc.Batch(ctx, []BatchOp{
				{Addr: 5, Write: true, Data: d2},
				{Addr: 3},
			})
			if err != nil {
				t.Fatal(err)
			}
			if out[0] != nil || !bytes.Equal(out[1], data) {
				t.Fatal("batch results wrong")
			}
			if err := svc.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
			st := svc.Stats()
			if st.Reads != 1 || st.Writes != 1 || st.Batches != 1 || st.WALRecords != 2 {
				t.Fatalf("stats %+v", st)
			}
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
			if svc.State() != StateClosed {
				t.Fatalf("state %v after close", svc.State())
			}
			if err := svc.Write(ctx, 1, data); !errors.Is(err, ErrClosed) {
				t.Fatalf("write after close: %v", err)
			}
		})
	}
}

// TestServiceConcurrentStress hammers one Service from many goroutines,
// each owning a disjoint address range so every goroutine can assert
// read-your-writes on its own blocks. Run under -race this is the
// goroutine-safety test for the admission queue and supervisor.
func TestServiceConcurrentStress(t *testing.T) {
	for _, v := range []Variant{Baseline, Fork} {
		t.Run(fmt.Sprint(v), func(t *testing.T) {
			cfg := testServiceConfig(v)
			cfg.QueueDepth = 4
			svc, err := NewService(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const goroutines = 8
			const perG = 8 // address range per goroutine (64 blocks total)
			const ops = 60
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					ctx := context.Background()
					wl := rng.New(uint64(g) + 1)
					base := uint64(g * perG)
					last := make(map[uint64][]byte)
					for i := 0; i < ops; i++ {
						addr := base + wl.Uint64n(perG)
						if wl.Float64() < 0.5 {
							data := chaosPayload(32, uint64(g), uint64(i)+1)
							if err := svc.Write(ctx, addr, data); err != nil {
								t.Errorf("goroutine %d: write: %v", g, err)
								return
							}
							last[addr] = data
						} else {
							got, err := svc.Read(ctx, addr)
							if err != nil {
								t.Errorf("goroutine %d: read: %v", g, err)
								return
							}
							want := last[addr]
							if want == nil {
								want = make([]byte, 32)
							}
							if !bytes.Equal(got, want) {
								t.Errorf("goroutine %d: lost write at addr %d", g, addr)
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
			if st.Reads+st.Writes != goroutines*ops {
				t.Fatalf("served %d ops, want %d", st.Reads+st.Writes, goroutines*ops)
			}
		})
	}
}

// blockingHook blocks the worker goroutine inside its first write (the
// first after-append consultation; NewService's initial checkpoint only
// consults the checkpoint-save point) until gate is closed, and never
// kills. Used to hold the worker busy deterministically.
func blockingHook(entered, gate chan struct{}) func(CrashPoint) bool {
	var once sync.Once
	return func(p CrashPoint) bool {
		if p == CrashAfterAppend {
			once.Do(func() {
				close(entered)
				<-gate
			})
		}
		return false
	}
}

// TestServiceStressOracle hammers a single-shard Service with
// concurrent clients — singleton writes, reads, and batches racing
// into group-commit windows — then verifies every acknowledged write
// against an oracle. Run under -race it races admission against the
// run loop's window dispatch.
func TestServiceStressOracle(t *testing.T) {
	const (
		blocks    = 64
		blockSize = 32
		clients   = 6
		opsEach   = 30
	)
	svc, err := NewService(ServiceConfig{
		Device: DeviceConfig{
			Blocks: blocks, BlockSize: blockSize, Variant: Fork,
			Seed: 11, QueueSize: 8,
		},
		QueueDepth:      32,
		CheckpointEvery: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx := context.Background()
	// Each client owns a disjoint address range, so per-address program
	// order is per-client and the oracle needs no cross-client ordering.
	oracles := make([]map[uint64][]byte, clients)
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			oracle := make(map[uint64][]byte)
			oracles[c] = oracle
			lo := uint64(c) * blocks / clients
			hi := uint64(c+1) * blocks / clients
			src := rng.New(uint64(1000 + c))
			for op := 0; op < opsEach; op++ {
				switch src.Uint64n(3) {
				case 0:
					addr := lo + src.Uint64n(hi-lo)
					data := bytes.Repeat([]byte{byte(c*50 + op)}, blockSize)
					if err := svc.Write(ctx, addr, data); err != nil {
						errCh <- fmt.Errorf("client %d write: %w", c, err)
						return
					}
					oracle[addr] = data
				case 1:
					addr := lo + src.Uint64n(hi-lo)
					got, err := svc.Read(ctx, addr)
					if err != nil {
						errCh <- fmt.Errorf("client %d read: %w", c, err)
						return
					}
					if want, ok := oracle[addr]; ok && !bytes.Equal(got, want) {
						errCh <- fmt.Errorf("client %d: addr %d read back wrong data", c, addr)
						return
					}
				default:
					n := 2 + int(src.Uint64n(4))
					ops := make([]BatchOp, 0, n)
					for i := 0; i < n; i++ {
						addr := lo + src.Uint64n(hi-lo)
						data := bytes.Repeat([]byte{byte(c*50 + op + i)}, blockSize)
						ops = append(ops, BatchOp{Addr: addr, Write: true, Data: data})
					}
					if _, err := svc.Batch(ctx, ops); err != nil {
						errCh <- fmt.Errorf("client %d batch: %w", c, err)
						return
					}
					for _, o := range ops {
						oracle[o.Addr] = o.Data // last write in ops order wins per address
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Final read-your-writes sweep over every oracle.
	for c, oracle := range oracles {
		for addr, want := range oracle {
			got, err := svc.Read(ctx, addr)
			if err != nil {
				t.Fatalf("final read %d: %v", addr, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("client %d: addr %d lost its last acknowledged write", c, addr)
			}
		}
	}
}

func TestServiceContextCancellation(t *testing.T) {
	cfg := testServiceConfig(Fork)
	cfg.QueueDepth = 2
	entered := make(chan struct{})
	gate := make(chan struct{})
	cfg.crashHook = blockingHook(entered, gate)
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Pre-cancelled context: rejected before admission.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := svc.Write(cancelled, 1, make([]byte, 32)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled write: %v", err)
	}

	// Hold the worker inside a write, then cancel a queued operation: the
	// caller unblocks with ctx.Err() while the operation itself stays in
	// flight and is applied once the worker resumes.
	w1done := make(chan error, 1)
	go func() { w1done <- svc.Write(context.Background(), 2, chaosPayload(32, 9, 1)) }()
	<-entered
	ctx, cancel2 := context.WithCancel(context.Background())
	w2data := chaosPayload(32, 9, 2)
	w2done := make(chan error, 1)
	go func() { w2done <- svc.Write(ctx, 3, w2data) }()
	for len(svc.q) == 0 {
		runtime.Gosched()
	}
	cancel2()
	if err := <-w2done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued write: %v", err)
	}
	close(gate)
	if err := <-w1done; err != nil {
		t.Fatalf("blocked write: %v", err)
	}
	// The cancelled write still ran to completion (documented semantics).
	got, err := svc.Read(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, w2data) {
		t.Fatal("cancelled-but-admitted write was not applied")
	}
}

func TestServiceOverload(t *testing.T) {
	cfg := testServiceConfig(Baseline)
	cfg.QueueDepth = 1
	cfg.Backpressure = BackpressureReject
	entered := make(chan struct{})
	gate := make(chan struct{})
	cfg.crashHook = blockingHook(entered, gate)
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx := context.Background()
	w1done := make(chan error, 1)
	go func() { w1done <- svc.Write(ctx, 1, chaosPayload(32, 4, 1)) }()
	<-entered // worker busy inside w1
	w2done := make(chan error, 1)
	go func() { w2done <- svc.Write(ctx, 2, chaosPayload(32, 4, 2)) }()
	for len(svc.q) == 0 {
		runtime.Gosched()
	}
	// Queue full, worker busy: fail fast.
	if err := svc.Write(ctx, 3, chaosPayload(32, 4, 3)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded write: %v", err)
	}
	if st := svc.Stats(); st.Overloaded != 1 {
		t.Fatalf("overloaded count %d", st.Overloaded)
	}
	close(gate)
	if err := <-w1done; err != nil {
		t.Fatal(err)
	}
	if err := <-w2done; err != nil {
		t.Fatal(err)
	}
}

// degradedConfig poisons deterministically: zero-probability injector
// (so faults only fire when forced), no controller retries (the first
// fault poisons), and a spent recovery budget.
func degradedConfig(degradedReads bool) ServiceConfig {
	return ServiceConfig{
		Device: DeviceConfig{
			Blocks:    32,
			BlockSize: 16,
			QueueSize: 2,
			Seed:      5,
			Variant:   Baseline,
			Retries:   -1,
			Faults:    &faults.Config{Seed: 9},
		},
		CheckpointEvery: 1 << 20,
		MaxRecoveries:   -1, // budget already spent: first poisoning gives up
		DegradedReads:   degradedReads,
		sleep:           func(time.Duration) {},
	}
}

func TestServiceDegradedReads(t *testing.T) {
	svc, err := NewService(degradedConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	d1 := chaosPayload(16, 1, 1)
	if err := svc.Write(ctx, 1, d1); err != nil {
		t.Fatal(err)
	}
	svc.dev.inj.Force(faults.TransientWrite)
	d2 := chaosPayload(16, 1, 2)
	err = svc.Write(ctx, 2, d2)
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("write after exhausted budget: %v", err)
	}
	// The typed cause survives the supervisor's wrapping.
	var pe *PoisonedError
	if !errors.As(err, &pe) {
		t.Fatalf("errors.As(*PoisonedError) failed on %v", err)
	}
	if svc.State() != StateDegraded {
		t.Fatalf("state %v, want degraded", svc.State())
	}
	// Reads still served from the final restore.
	got, err := svc.Read(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, d1) {
		t.Fatal("degraded read lost an acknowledged write")
	}
	// The failed write was journaled durably before the poisoning, so the
	// final restore replayed it: visible despite the error (the error
	// only means "not acknowledged", never "not applied").
	got, err = svc.Read(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, d2) {
		t.Fatal("journaled write not replayed into degraded state")
	}
	// Writes stay refused.
	if err := svc.Write(ctx, 3, chaosPayload(16, 1, 3)); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("degraded write: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestServiceFailStop(t *testing.T) {
	svc, err := NewService(degradedConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	svc.dev.inj.Force(faults.TransientRead)
	if _, err := svc.Read(ctx, 0); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("read after exhausted budget: %v", err)
	}
	if svc.State() != StateFailed {
		t.Fatalf("state %v, want failed", svc.State())
	}
	if _, err := svc.Read(ctx, 1); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("read in failed state: %v", err)
	}
	if err := svc.Write(ctx, 1, make([]byte, 16)); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("write in failed state: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALReplayIdempotence kills a service with applied-but-untruncated
// journal records, then recovers twice from byte-identical clones of the
// surviving stores. Both recoveries must produce identical devices —
// same position map, same stash, same medium ciphertexts — and both must
// hold every durable write.
// flakyWALStore wraps a wal.MemStore with a bounded number of injected
// append failures, each of which persists a partial frame first — the
// short-write scenario the journal's broken latch guards against.
type flakyWALStore struct {
	*wal.MemStore
	failAppends int
}

var errWALDisk = errors.New("injected WAL disk error")

func (f *flakyWALStore) Append(p []byte) error {
	if f.failAppends > 0 {
		f.failAppends--
		f.MemStore.Append(p[:len(p)/2])
		return errWALDisk
	}
	return f.MemStore.Append(p)
}

// TestServiceHealsBrokenJournal pins the stranded-record fix: a store
// failure mid-append must not let later writes be acknowledged behind
// the partial frame. The service heals by committing a checkpoint
// (truncating the broken journal), after which writes succeed again and
// everything acknowledged survives a reopen over the same stores.
func TestServiceHealsBrokenJournal(t *testing.T) {
	walStore := &flakyWALStore{MemStore: wal.NewMemStore()}
	ckpts := NewMemCheckpointStore()
	cfg := testServiceConfig(Fork)
	cfg.WAL = walStore
	cfg.Checkpoints = ckpts
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	before := chaosPayload(32, 9, 1)
	if err := svc.Write(ctx, 2, before); err != nil {
		t.Fatal(err)
	}
	ckptsBefore := svc.Stats().Checkpoints

	walStore.failAppends = 1
	bad := chaosPayload(32, 9, 2)
	if err := svc.Write(ctx, 2, bad); !errors.Is(err, errWALDisk) {
		t.Fatalf("injected append failure not surfaced: %v", err)
	}
	// The heal committed a checkpoint covering every acknowledged write
	// and truncated the suspect journal, so the very next write succeeds.
	if got := svc.Stats().Checkpoints; got != ckptsBefore+1 {
		t.Fatalf("heal committed %d checkpoints, want %d", got, ckptsBefore+1)
	}
	after := chaosPayload(32, 9, 3)
	if err := svc.Write(ctx, 7, after); err != nil {
		t.Fatalf("write after journal heal: %v", err)
	}
	if _, err := svc.Batch(ctx, []BatchOp{{Addr: 8, Write: true, Data: after}}); err != nil {
		t.Fatalf("batch after journal heal: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen over the surviving stores: the failed write must not be
	// visible, everything acknowledged must be.
	cfg2 := testServiceConfig(Fork)
	cfg2.WAL = walStore
	cfg2.Checkpoints = ckpts
	svc2, err := NewService(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	for addr, want := range map[uint64][]byte{2: before, 7: after, 8: after} {
		got, err := svc2.Read(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("addr %d lost across heal + reopen", addr)
		}
	}
}

func TestWALReplayIdempotence(t *testing.T) {
	walStore := wal.NewMemStore()
	cks := NewMemCheckpointStore()
	applies := 0
	cfg := ServiceConfig{
		Device: DeviceConfig{
			Blocks:    32,
			BlockSize: 16,
			QueueSize: 4,
			Seed:      11,
			Variant:   Fork,
			Integrity: true,
		},
		CheckpointEvery: 3,
		WAL:             walStore,
		Checkpoints:     cks,
		crashHook: func(p CrashPoint) bool {
			// Kill at the 5th apply: the checkpoint covers seq 3, and the
			// journal holds seqs 4 and 5 — both already applied, seq 5
			// unacknowledged.
			if p == CrashAfterApply {
				applies++
				return applies == 5
			}
			return false
		},
		sleep: func(time.Duration) {},
	}
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	payload := func(i int) []byte { return chaosPayload(16, 0xda7a, uint64(i)) }
	for i := 1; i <= 5; i++ {
		err := svc.Write(ctx, uint64(i), payload(i))
		switch {
		case i < 5 && err != nil:
			t.Fatalf("write %d: %v", i, err)
		case i == 5 && !errors.Is(err, errKilled):
			t.Fatalf("write 5 should have been killed, got %v", err)
		}
	}

	recovered := func(w *wal.MemStore, c *MemCheckpointStore) *Service {
		rcfg := cfg
		rcfg.WAL, rcfg.Checkpoints = w, c
		rcfg.crashHook = nil
		s, err := NewService(rcfg)
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		return s
	}
	s1 := recovered(walStore.Clone(), cks.Clone())
	s2 := recovered(walStore.Clone(), cks.Clone())
	if r := s1.Stats().ReplayedOps; r != 2 {
		t.Fatalf("replayed %d records, want 2 (seqs 4 and 5)", r)
	}

	// Identical recoveries: position map, stash, counters (snapshot bytes)
	// and medium ciphertexts all byte-equal.
	snap1, err := s1.dev.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := s2.dev.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b1, err := snap1.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := snap2.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("recovered client states differ (position map / stash / counters)")
	}
	if !mediumEquals(s1.dev, cloneMedium(s2.dev)) {
		t.Fatal("recovered mediums differ")
	}

	// Every durable write is present, including the replayed
	// unacknowledged seq 5.
	for i := 1; i <= 5; i++ {
		got, err := s1.Read(ctx, uint64(i))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, payload(i)) {
			t.Fatalf("write %d lost across recovery", i)
		}
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseVsCommitRace(t *testing.T) {
	// Regression for the Close-vs-commit window: Writes racing Close must
	// each either be acknowledged AND durable across a reopen from the
	// same journal + checkpoint stores, or be rejected with ErrClosed.
	// An acked-then-dropped write or an ack issued after Close returned
	// are both violations. Each writer owns one address and writes
	// strictly increasing versions, so "last acked payload" is exact.
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	const writers = 4
	payload := func(w, v int) []byte {
		return chaosPayload(16, 0xc105e, uint64(w)<<32|uint64(v))
	}
	for round := 0; round < rounds; round++ {
		walStore := wal.NewMemStore()
		cks := NewMemCheckpointStore()
		cfg := ServiceConfig{
			Device: DeviceConfig{
				Blocks:    16,
				BlockSize: 16,
				QueueSize: 4,
				Seed:      uint64(round + 1),
				Variant:   Fork,
			},
			QueueDepth:      writers * 2,
			CheckpointEvery: 5, // commits land mid-race, not just at Close
			WAL:             walStore,
			Checkpoints:     cks,
		}
		svc, err := NewService(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()

		lastAcked := make([]int, writers) // 0 = none acked
		var closeReturned atomic.Bool
		var wg sync.WaitGroup
		errCh := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for v := 1; ; v++ {
					sawClose := closeReturned.Load()
					err := svc.Write(ctx, uint64(w), payload(w, v))
					if err == nil {
						if sawClose {
							errCh <- fmt.Errorf("round %d writer %d: ack after Close returned", round, w)
							return
						}
						lastAcked[w] = v
						continue
					}
					if !errors.Is(err, ErrClosed) {
						errCh <- fmt.Errorf("round %d writer %d: %w", round, w, err)
					}
					return
				}
			}(w)
		}
		// Let the race develop for a moment, then close concurrently.
		for i := 0; i < round%7; i++ {
			runtime.Gosched()
		}
		if err := svc.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
		closeReturned.Store(true)
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		// Post-close admission is rejected, not silently dropped.
		if err := svc.Write(ctx, 0, payload(0, 1<<20)); !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: post-close write returned %v, want ErrClosed", round, err)
		}

		// Reopen from the surviving stores: every acked write is there.
		rcfg := cfg
		svc2, err := NewService(rcfg)
		if err != nil {
			t.Fatalf("round %d: reopen: %v", round, err)
		}
		for w := 0; w < writers; w++ {
			if lastAcked[w] == 0 {
				continue
			}
			got, err := svc2.Read(ctx, uint64(w))
			if err != nil {
				t.Fatalf("round %d: read back writer %d: %v", round, w, err)
			}
			if want := payload(w, lastAcked[w]); !bytes.Equal(got, want) {
				t.Fatalf("round %d: writer %d acked v%d but reopen shows different data (lost acked write)",
					round, w, lastAcked[w])
			}
		}
		if err := svc2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServiceFileJournalCrashReopen runs a Service over a file journal
// through several checkpoints, each of which resets the file in place,
// kills it through the crash hook, and reopens a new Service over the
// same journal file and checkpoint store. Every acknowledged write must
// read back, and the write in flight at the kill must read as its old
// or its new value. Addresses are rewritten across checkpoints, so a
// stale frame that survived a reset and got replayed would show up as a
// reverted block. A final clean Close and reopen reads over the zeroed
// file the last reset leaves behind.
func TestServiceFileJournalCrashReopen(t *testing.T) {
	for _, kill := range []CrashPoint{CrashAfterSync, CrashAfterCheckpointSave} {
		t.Run(kill.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.wal")
			cks := NewMemCheckpointStore()
			var armed atomic.Bool
			cfg := testServiceConfig(Fork)
			cfg.CheckpointEvery = 5
			cfg.Checkpoints = cks
			cfg.crashHook = func(p CrashPoint) bool { return p == kill && armed.Load() }
			cfg.sleep = func(time.Duration) {}
			open := func(c ServiceConfig) (*Service, *wal.FileStore) {
				t.Helper()
				journal, err := OpenWALFile(path)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { journal.Close() })
				c.WAL = journal
				svc, err := NewService(c)
				if err != nil {
					t.Fatal(err)
				}
				return svc, journal
			}
			ctx := context.Background()
			size := cfg.Device.BlockSize
			acked := map[uint64][]byte{}
			write := func(svc *Service, i int) error {
				addr, data := uint64(i%7), chaosPayload(size, 0xf11e, uint64(i))
				err := svc.Write(ctx, addr, data)
				if err == nil {
					acked[addr] = data
				}
				return err
			}
			svc, journal := open(cfg)
			i := 0
			for ; i < 23; i++ {
				if err := write(svc, i); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
			}
			if n := svc.Stats().Checkpoints; n < 3 {
				t.Fatalf("%d checkpoints before the kill, want at least 3", n)
			}
			armed.Store(true)
			var lostAddr uint64
			var lostOld, lostNew []byte
			for ; ; i++ {
				if i > 40 {
					t.Fatalf("crash hook at %v never fired", kill)
				}
				addr := uint64(i % 7)
				old := acked[addr]
				if err := write(svc, i); err != nil {
					lostAddr, lostOld, lostNew = addr, old, chaosPayload(size, 0xf11e, uint64(i))
					break
				}
			}
			svc.Close()
			data, err := journal.Load()
			if err != nil {
				t.Fatal(err)
			}
			left, _ := wal.DecodeAll(data)
			ck, ok, err := cks.Load()
			if err != nil || !ok {
				t.Fatalf("no checkpoint survived: %v", err)
			}
			journal.Close()

			rcfg := cfg
			rcfg.crashHook = nil
			svc, _ = open(rcfg)
			replayed := svc.Stats().ReplayedOps
			switch kill {
			case CrashAfterSync:
				if replayed == 0 {
					t.Fatalf("nothing replayed from the file journal (%d records left)", len(left))
				}
			case CrashAfterCheckpointSave:
				// The journal was not reset: it still holds records, all
				// covered by the checkpoint, and replay must skip them.
				if len(left) == 0 || left[len(left)-1].Seq > ck.Seq || replayed != 0 {
					t.Fatalf("%d records left (checkpoint seq %d), %d replayed", len(left), ck.Seq, replayed)
				}
			}
			got, err := svc.Read(ctx, lostAddr)
			if err != nil || !(bytes.Equal(got, lostOld) || bytes.Equal(got, lostNew)) {
				t.Fatalf("write in flight at the kill (addr %d) reads as neither old nor new (err %v)", lostAddr, err)
			}
			delete(acked, lostAddr)
			check := func(svc *Service) {
				t.Helper()
				for addr, want := range acked {
					got, err := svc.Read(ctx, addr)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("addr %d: acknowledged write lost", addr)
					}
				}
			}
			check(svc)
			for end := i + 8; i < end; i++ { // rewrites every address, lostAddr included
				if err := write(svc, i); err != nil {
					t.Fatalf("write %d after reopen: %v", i, err)
				}
			}
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
			svc, _ = open(rcfg)
			defer svc.Close()
			check(svc)
		})
	}
}
