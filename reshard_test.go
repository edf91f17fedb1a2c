package forkoram

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"forkoram/internal/wal"
)

// reshardStores hands every shard generation (and the router) durable
// in-memory stores keyed by (policy version, shard), the way a real
// deployment would key files — so a fleet rebuilt mid-migration finds
// both generations' data again.
type reshardStores struct {
	mu     sync.Mutex
	router *wal.MemStore
	wals   map[[2]uint64]*wal.MemStore
	ckpts  map[[2]uint64]*MemCheckpointStore
}

func newReshardStores() *reshardStores {
	return &reshardStores{
		router: wal.NewMemStore(),
		wals:   make(map[[2]uint64]*wal.MemStore),
		ckpts:  make(map[[2]uint64]*MemCheckpointStore),
	}
}

func (s *reshardStores) perShard(p RoutingPolicy, shard int, sc *ServiceConfig) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := [2]uint64{p.Version, uint64(shard)}
	if s.wals[k] == nil {
		s.wals[k] = wal.NewMemStore()
		s.ckpts[k] = NewMemCheckpointStore()
	}
	sc.WAL = s.wals[k]
	sc.Checkpoints = s.ckpts[k]
}

func reshardTestConfig(shards int, blocks uint64, st *reshardStores) ShardedServiceConfig {
	cfg := shardedTestConfig(shards, blocks)
	cfg.PerShard = st.perShard
	cfg.RouterWAL = st.router
	return cfg
}

// TestReshardOnline splits 2→4 shards under concurrent traffic: the
// fleet serves reads and writes during the whole migration, every
// pre-migration and mid-migration write survives, and the journaled
// policy epoch advances.
func TestReshardOnline(t *testing.T) {
	const blocks = 48
	st := newReshardStores()
	svc, err := NewShardedService(reshardTestConfig(2, blocks, st))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()

	var mu sync.Mutex
	oracle := make(map[uint64][]byte)
	write := func(addr uint64, tag byte) {
		t.Helper()
		if err := svc.Write(ctx, addr, payload32(tag)); err != nil {
			t.Fatalf("write %d: %v", addr, err)
		}
		mu.Lock()
		oracle[addr] = payload32(tag)
		mu.Unlock()
	}
	for addr := uint64(0); addr < blocks; addr++ {
		write(addr, byte(addr))
	}

	// Client traffic concurrent with the migration, hitting every shard
	// generation. Each client owns the addresses ≡ c (mod 3) — one
	// writer per address, so read-your-writes asserts exactly.
	stop := make(chan struct{})
	var clientErr atomic.Value
	var served atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mine := make(map[uint64][]byte)
			mu.Lock()
			for addr := uint64(c); addr < blocks; addr += 3 {
				mine[addr] = oracle[addr]
			}
			mu.Unlock()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				addr := uint64(c) + 3*uint64((i*5+c)%(blocks/3))
				if i%3 == 0 {
					tag := byte(128 + c*40 + i%40)
					if err := svc.Write(ctx, addr, payload32(tag)); err != nil {
						clientErr.Store(fmt.Errorf("client %d write %d: %w", c, addr, err))
						return
					}
					mine[addr] = payload32(tag)
					mu.Lock()
					oracle[addr] = payload32(tag)
					mu.Unlock()
				} else {
					got, err := svc.Read(ctx, addr)
					if err != nil {
						clientErr.Store(fmt.Errorf("client %d read %d: %w", c, addr, err))
						return
					}
					if !bytes.Equal(got, mine[addr]) {
						clientErr.Store(fmt.Errorf("client %d read %d: read-your-writes violated during migration", c, addr))
						return
					}
				}
				served.Add(1)
			}
		}(c)
	}

	if err := svc.Reshard(ctx, ReshardConfig{NewShards: 4, ChunkBlocks: 4}); err != nil {
		t.Fatalf("reshard: %v", err)
	}
	close(stop)
	wg.Wait()
	if err, ok := clientErr.Load().(error); ok && err != nil {
		t.Fatal(err)
	}
	if served.Load() == 0 {
		t.Fatal("no client ops served during the migration window")
	}

	if got := svc.Shards(); got != 4 {
		t.Fatalf("post-cutover Shards() = %d, want 4", got)
	}
	if p := svc.Policy(); p.Version != 2 || p.Shards != 4 {
		t.Fatalf("post-cutover policy %+v", p)
	}
	if svc.Migrating() {
		t.Fatal("migration still reported active after cutover")
	}
	stats := svc.Stats()
	if stats.Migration.Epoch != 2 || stats.Migration.Completed != 1 {
		t.Fatalf("migration stats %+v", stats.Migration)
	}
	if stats.Migration.BlocksMoved != blocks || stats.Migration.Chunks != blocks/4 {
		t.Fatalf("migration moved %d blocks in %d chunks, want %d in %d",
			stats.Migration.BlocksMoved, stats.Migration.Chunks, blocks, blocks/4)
	}
	for addr := uint64(0); addr < blocks; addr++ {
		got, err := svc.Read(ctx, addr)
		if err != nil {
			t.Fatalf("read %d after cutover: %v", addr, err)
		}
		if !bytes.Equal(got, oracle[addr]) {
			t.Fatalf("addr %d lost across reshard", addr)
		}
	}

	// The recipient policy survives a full fleet reopen: the router
	// journal, not the config's Shards field, decides the width.
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	svc2, err := NewShardedService(reshardTestConfig(2, blocks, st))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if got := svc2.Shards(); got != 4 {
		t.Fatalf("reopened fleet at %d shards, want journaled 4", got)
	}
	for addr := uint64(0); addr < blocks; addr++ {
		got, err := svc2.Read(ctx, addr)
		if err != nil || !bytes.Equal(got, oracle[addr]) {
			t.Fatalf("addr %d wrong after reopen (err %v)", addr, err)
		}
	}
}

// TestReshardMerge shrinks 3→2: the protocol is symmetric.
func TestReshardMerge(t *testing.T) {
	const blocks = 30
	st := newReshardStores()
	svc, err := NewShardedService(reshardTestConfig(3, blocks, st))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	for addr := uint64(0); addr < blocks; addr++ {
		if err := svc.Write(ctx, addr, payload32(byte(addr+7))); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Reshard(ctx, ReshardConfig{NewShards: 2, ChunkBlocks: 7}); err != nil {
		t.Fatal(err)
	}
	if got := svc.Shards(); got != 2 {
		t.Fatalf("Shards() = %d, want 2", got)
	}
	for addr := uint64(0); addr < blocks; addr++ {
		got, err := svc.Read(ctx, addr)
		if err != nil || !bytes.Equal(got, payload32(byte(addr+7))) {
			t.Fatalf("addr %d wrong after merge (err %v)", addr, err)
		}
	}
}

// TestReshardResumeAfterKill kills the router mid-stream, rebuilds the
// fleet from the surviving stores, observes dual routing restored at
// the journaled watermark, and resumes the migration to completion with
// every acked write intact — the crash-recovery contract in miniature.
func TestReshardResumeAfterKill(t *testing.T) {
	const blocks = 40
	st := newReshardStores()
	cfg := reshardTestConfig(2, blocks, st)
	var kills atomic.Int32
	cfg.reshardHook = func(p ReshardCrashPoint) bool {
		// Fire once, mid-stream (every advance so far was synced, so the
		// journal is clean; the chaos campaign covers torn tails).
		if p == ReshardKillMidStream && kills.Load() == 0 {
			kills.Add(1)
			return true
		}
		return false
	}
	svc, err := NewShardedService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for addr := uint64(0); addr < blocks; addr++ {
		if err := svc.Write(ctx, addr, payload32(byte(addr))); err != nil {
			t.Fatal(err)
		}
	}
	err = svc.Reshard(ctx, ReshardConfig{NewShards: 3, ChunkBlocks: 8})
	if !errors.Is(err, errKilled) {
		t.Fatalf("reshard returned %v, want errKilled", err)
	}
	if !svc.killed() {
		t.Fatal("router not marked killed")
	}
	// A killed router refuses everything, like a dead process.
	if _, err := svc.Read(ctx, 0); !errors.Is(err, errKilled) {
		t.Fatalf("killed router served a read (err %v)", err)
	}
	svc.Close()

	// Rebuild over the same stores: the journal says a migration is
	// open; the fleet must come back dual-routed and resumable.
	cfg2 := reshardTestConfig(2, blocks, st)
	svc2, err := NewShardedService(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if !svc2.Migrating() {
		t.Fatal("rebuilt fleet lost the open migration epoch")
	}
	ms := svc2.Stats().Migration
	if ms.FromShards != 2 || ms.ToShards != 3 {
		t.Fatalf("rebuilt migration %+v", ms)
	}
	// Dual routing serves immediately — both sides of the watermark.
	for addr := uint64(0); addr < blocks; addr++ {
		got, err := svc2.Read(ctx, addr)
		if err != nil {
			t.Fatalf("read %d on rebuilt mid-migration fleet: %v", addr, err)
		}
		if !bytes.Equal(got, payload32(byte(addr))) {
			t.Fatalf("addr %d wrong on rebuilt mid-migration fleet", addr)
		}
	}
	// Writes land correctly on whichever generation owns the address.
	if err := svc2.Write(ctx, 1, payload32(0xEE)); err != nil {
		t.Fatal(err)
	}
	// Resume and finish.
	if err := svc2.Reshard(ctx, ReshardConfig{}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := svc2.Shards(); got != 3 {
		t.Fatalf("Shards() = %d after resumed cutover, want 3", got)
	}
	if svc2.Stats().Migration.Resumes != 1 {
		t.Fatalf("Resumes = %d, want 1", svc2.Stats().Migration.Resumes)
	}
	for addr := uint64(0); addr < blocks; addr++ {
		want := payload32(byte(addr))
		if addr == 1 {
			want = payload32(0xEE)
		}
		got, err := svc2.Read(ctx, addr)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("addr %d wrong after resumed reshard (err %v)", addr, err)
		}
	}
}

// TestReshardRejectsBadTargets pins the argument contract.
func TestReshardRejectsBadTargets(t *testing.T) {
	st := newReshardStores()
	svc, err := NewShardedService(reshardTestConfig(2, 16, st))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	if err := svc.Reshard(ctx, ReshardConfig{NewShards: 2}); err == nil {
		t.Fatal("accepted a reshard to the current width")
	}
	if err := svc.Reshard(ctx, ReshardConfig{}); err == nil {
		t.Fatal("accepted NewShards 0 with no journaled migration")
	}
	if err := svc.Reshard(ctx, ReshardConfig{NewShards: 17}); err == nil {
		t.Fatal("accepted more shards than blocks")
	}
}

// TestSelfHealRestartsDownShard kills one shard's supervisor and waits
// for the router's background loop (on by default) to cold-start it:
// ErrShardDown is transient, and acked writes survive the heal.
func TestSelfHealRestartsDownShard(t *testing.T) {
	const shards, blocks = 3, 24
	cfg := shardedTestConfig(shards, blocks)
	cfg.SelfHeal.Interval = time.Millisecond
	var armed, fired atomic.Bool
	consult := 0
	cfg.PerShard = func(_ RoutingPolicy, shard int, sc *ServiceConfig) {
		if shard == 2 {
			sc.crashHook = func(CrashPoint) bool {
				if !armed.Load() || fired.Load() {
					return false
				}
				consult++
				if consult == 4 {
					fired.Store(true)
					return true
				}
				return false
			}
		}
	}
	svc, err := NewShardedService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	for addr := uint64(0); addr < blocks; addr++ {
		if err := svc.Write(ctx, addr, payload32(byte(addr))); err != nil {
			t.Fatal(err)
		}
	}
	// Hammer shard 2 until the armed kill fires.
	armed.Store(true)
	killed := false
	for tag := byte(10); tag < 60 && !killed; tag++ {
		err := svc.Write(ctx, 2, payload32(2)) // keep the oracle value stable
		if errors.Is(err, ErrShardDown) {
			killed = true
		} else if err != nil {
			t.Fatalf("unexpected write error: %v", err)
		}
	}
	if !killed {
		t.Fatal("armed kill never fired")
	}
	// The loop must bring the shard back without any manual restart.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := svc.Stats()
		if st.Healthy == shards {
			if st.HealRestarts == 0 {
				t.Fatalf("shard healthy but HealRestarts = 0: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("self-heal never restarted the shard: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	for addr := uint64(0); addr < blocks; addr++ {
		got, err := svc.Read(ctx, addr)
		if err != nil || !bytes.Equal(got, payload32(byte(addr))) {
			t.Fatalf("addr %d wrong after self-heal (err %v)", addr, err)
		}
	}
}

// TestShardedValidateEdges pins the Shards config contract at both
// edges: negative rejected with a message that matches the accepted
// range, zero accepted as the single-shard default.
func TestShardedValidateEdges(t *testing.T) {
	cfg := shardedTestConfig(-1, 16)
	_, err := NewShardedService(cfg)
	if err == nil {
		t.Fatal("accepted Shards = -1")
	}
	if !strings.Contains(err.Error(), ">= 0") {
		t.Fatalf("Shards=-1 error %q does not state the accepted range", err)
	}
	cfg = shardedTestConfig(0, 16)
	svc, err := NewShardedService(cfg)
	if err != nil {
		t.Fatalf("Shards = 0 (single-shard default) rejected: %v", err)
	}
	defer svc.Close()
	if got := svc.Shards(); got != 1 {
		t.Fatalf("Shards()=%d under the zero default, want 1", got)
	}
	ctx := context.Background()
	if err := svc.Write(ctx, 3, payload32(9)); err != nil {
		t.Fatal(err)
	}
	if got, err := svc.Read(ctx, 3); err != nil || !bytes.Equal(got, payload32(9)) {
		t.Fatalf("single-shard default fleet does not serve (err %v)", err)
	}
}

// TestRestartShardDuringBatch races RestartShard against in-flight
// cross-shard batches: every batch either fully succeeds or fails with
// a shard-attributed error (ErrClosed from the restarting incarnation
// or ErrShardDown), never corrupts, and the fleet ends healthy. Runs
// under -race via make race.
func TestRestartShardDuringBatch(t *testing.T) {
	const shards, blocks = 3, 24
	svc, err := NewShardedService(shardedTestConfig(shards, blocks))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	for addr := uint64(0); addr < blocks; addr++ {
		if err := svc.Write(ctx, addr, payload32(byte(addr))); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bad atomic.Value
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				base := uint64((i + c*5) % (blocks - 2*shards))
				ops := []BatchOp{
					{Addr: base},
					{Addr: base + 1, Write: true, Data: payload32(byte(base + 1))},
					{Addr: base + uint64(shards)},
					{Addr: base + 2*uint64(shards), Write: true, Data: payload32(byte(base + 2*uint64(shards)))},
				}
				_, err := svc.Batch(ctx, ops)
				if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrShardDown) {
					bad.Store(fmt.Errorf("batch client %d: %w", c, err))
					return
				}
			}
		}(c)
	}
	for round := 0; round < 20; round++ {
		if err := svc.RestartShard(round % shards); err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("restart round %d: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()
	if err, ok := bad.Load().(error); ok && err != nil {
		t.Fatal(err)
	}
	// Every address still reads as its last acked value (writes always
	// rewrite addr's canonical payload, so any outcome is consistent).
	for addr := uint64(0); addr < blocks; addr++ {
		got, err := svc.Read(ctx, addr)
		if err != nil {
			t.Fatalf("read %d after restart storm: %v", addr, err)
		}
		if !bytes.Equal(got, payload32(byte(addr))) {
			t.Fatalf("addr %d corrupted by restart storm", addr)
		}
	}
}

// TestHealerSparesAReplacedShard: a healer restarts only the
// incarnation it saw dead. Once another caller has replaced it, the
// fresh incarnation keeps serving: closing it would fail the requests
// it serves with ErrClosed.
func TestHealerSparesAReplacedShard(t *testing.T) {
	cfg := shardedTestConfig(2, 16)
	cfg.SelfHeal = SelfHealConfig{Disable: true}
	svc, err := NewShardedService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.mu.Lock()
	set := svc.cur
	svc.mu.Unlock()
	seen := svc.svcAt(set, 0)
	if err := svc.RestartShard(0); err != nil {
		t.Fatal(err)
	}
	fresh := svc.svcAt(set, 0)
	if restarted, err := svc.restartIn(set, 0, seen); restarted || err != nil {
		t.Fatalf("healing the replaced incarnation: restarted %v, err %v", restarted, err)
	}
	if got := svc.svcAt(set, 0); got != fresh || fresh.State() != StateHealthy {
		t.Fatalf("healing the replaced incarnation restarted the fresh one (its state %v)", fresh.State())
	}
}

// TestConcurrentRestartSameShard: two RestartShard calls on the SAME
// shard must serialize (per-shard restart lock), both succeed, and the
// shard serves afterwards. Runs under -race via make race.
func TestConcurrentRestartSameShard(t *testing.T) {
	const shards, blocks = 3, 24
	svc, err := NewShardedService(shardedTestConfig(shards, blocks))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	for addr := uint64(0); addr < blocks; addr++ {
		if err := svc.Write(ctx, addr, payload32(byte(addr))); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 10; round++ {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				errs[k] = svc.RestartShard(1)
			}(k)
		}
		wg.Wait()
		for k, err := range errs {
			if err != nil {
				t.Fatalf("round %d caller %d: %v", round, k, err)
			}
		}
	}
	for addr := uint64(0); addr < blocks; addr++ {
		got, err := svc.Read(ctx, addr)
		if err != nil || !bytes.Equal(got, payload32(byte(addr))) {
			t.Fatalf("addr %d wrong after concurrent restarts (err %v)", addr, err)
		}
	}
}
