package forkoram

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"forkoram/internal/adversary"
	"forkoram/internal/faults"
	"forkoram/internal/tree"
	"forkoram/internal/wal"
)

// shardedTestConfig is a small sharded fleet over in-memory stores.
func shardedTestConfig(shards int, blocks uint64) ShardedServiceConfig {
	return ShardedServiceConfig{
		Shards: shards,
		Service: ServiceConfig{
			Device: DeviceConfig{
				Blocks:    blocks,
				BlockSize: 32,
				QueueSize: 4,
				Seed:      7,
				Variant:   Fork,
			},
			QueueDepth:      16,
			CheckpointEvery: 16,
		},
	}
}

func payload32(tag byte) []byte {
	p := make([]byte, 32)
	for i := range p {
		p[i] = tag ^ byte(i)
	}
	return p
}

// TestShardedRoundTrip drives every address of an unevenly partitioned
// space through the router and back, plus a cross-shard batch, and
// checks the aggregate and per-shard stats.
func TestShardedRoundTrip(t *testing.T) {
	const blocks, shards = 37, 4 // 37 % 4 != 0: shard sizes differ
	svc, err := NewShardedService(shardedTestConfig(shards, blocks))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()

	var sum uint64
	for i := 0; i < shards; i++ {
		sum += shardBlocks(blocks, shards, i)
	}
	if sum != blocks {
		t.Fatalf("shard sizes sum to %d, want %d", sum, blocks)
	}
	for addr := uint64(0); addr < blocks; addr++ {
		if got, want := svc.ShardOf(addr), int(addr%shards); got != want {
			t.Fatalf("ShardOf(%d) = %d, want %d", addr, got, want)
		}
		if err := svc.Write(ctx, addr, payload32(byte(addr))); err != nil {
			t.Fatalf("write %d: %v", addr, err)
		}
	}
	for addr := uint64(0); addr < blocks; addr++ {
		got, err := svc.Read(ctx, addr)
		if err != nil {
			t.Fatalf("read %d: %v", addr, err)
		}
		if !bytes.Equal(got, payload32(byte(addr))) {
			t.Fatalf("read %d returned wrong payload", addr)
		}
	}

	// Cross-shard batch: reads and writes interleaved over all shards;
	// results must be positional against the GLOBAL addresses.
	ops := []BatchOp{
		{Addr: 0},
		{Addr: 5, Write: true, Data: payload32(0xA5)},
		{Addr: 14},
		{Addr: 3, Write: true, Data: payload32(0xB3)},
		{Addr: 36},
	}
	out, err := svc.Batch(ctx, ops)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[0], payload32(0)) || !bytes.Equal(out[2], payload32(14)) || !bytes.Equal(out[4], payload32(36)) {
		t.Fatal("batch read results misrouted")
	}
	if out[1] != nil || out[3] != nil {
		t.Fatal("batch write slots must be nil")
	}
	for _, check := range []struct {
		addr uint64
		tag  byte
	}{{5, 0xA5}, {3, 0xB3}} {
		got, err := svc.Read(ctx, check.addr)
		if err != nil || !bytes.Equal(got, payload32(check.tag)) {
			t.Fatalf("batch write to %d not visible (err %v)", check.addr, err)
		}
	}

	st := svc.Stats()
	if st.Total.State != StateHealthy || st.Healthy != shards {
		t.Fatalf("fleet not healthy: %+v", st)
	}
	if st.Total.Writes != blocks {
		t.Fatalf("aggregate writes %d, want %d", st.Total.Writes, blocks)
	}
	if st.Total.Batches == 0 {
		t.Fatal("no shard recorded a batch")
	}
	var perShardBlocks uint64
	for i, sh := range st.PerShard {
		if sh.Shard != i {
			t.Fatalf("per-shard breakdown misindexed: %+v", sh)
		}
		perShardBlocks += sh.Blocks
		if sh.Stats.Reads == 0 {
			t.Fatalf("shard %d served no reads", i)
		}
	}
	if perShardBlocks != blocks {
		t.Fatalf("per-shard blocks sum to %d, want %d", perShardBlocks, blocks)
	}
}

// TestShardedConfigValidation pins the router's configuration contract.
func TestShardedConfigValidation(t *testing.T) {
	cfg := shardedTestConfig(8, 4) // more shards than blocks
	if _, err := NewShardedService(cfg); err == nil {
		t.Fatal("accepted more shards than blocks")
	}
	cfg = shardedTestConfig(2, 16)
	cfg.Service.WAL = wal.NewMemStore() // shared journal across shards
	if _, err := NewShardedService(cfg); err == nil {
		t.Fatal("accepted a template-level WAL store")
	}
}

// TestShardedBatchAllOrNothing: one malformed op rejects the whole
// cross-shard batch before any shard is touched.
func TestShardedBatchAllOrNothing(t *testing.T) {
	svc, err := NewShardedService(shardedTestConfig(3, 24))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	before := svc.Stats().Total

	// Out-of-range address.
	if _, err := svc.Batch(ctx, []BatchOp{{Addr: 1}, {Addr: 99}}); err == nil {
		t.Fatal("out-of-range batch accepted")
	}
	// Wrong payload size on a write.
	if _, err := svc.Batch(ctx, []BatchOp{
		{Addr: 1}, {Addr: 2, Write: true, Data: []byte{1, 2, 3}},
	}); err == nil {
		t.Fatal("short-payload batch accepted")
	}
	after := svc.Stats().Total
	if after.Reads != before.Reads || after.Writes != before.Writes || after.Batches != before.Batches {
		t.Fatalf("rejected batches touched shard counters: %+v -> %+v", before, after)
	}
}

// TestShardedFailureIsolation: a shard whose device fails terminally
// degrades only its own residue class; siblings keep full service and
// the router summary reports the split.
func TestShardedFailureIsolation(t *testing.T) {
	cfg := shardedTestConfig(3, 30)
	cfg.Service.MaxRecoveries = -1 // first in-service poisoning is terminal
	cfg.PerShard = func(_ RoutingPolicy, shard int, sc *ServiceConfig) {
		if shard == 1 {
			sc.Device.Retries = -1
			sc.Device.Faults = &faults.Config{Seed: 11, PTransientWrite: 1}
		}
	}
	svc, err := NewShardedService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()

	// Addr 1 routes to shard 1: its first write faults, exhausts the
	// spent budget, and fail-stops that shard alone.
	err = svc.Write(ctx, 1, payload32(1))
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("faulting shard returned %v, want ErrUnrecoverable", err)
	}
	// Siblings (shards 0 and 2) still serve reads and writes.
	for _, addr := range []uint64{0, 2, 3, 5, 27, 29} {
		if err := svc.Write(ctx, addr, payload32(byte(addr))); err != nil {
			t.Fatalf("sibling write %d failed after shard-1 fail-stop: %v", addr, err)
		}
		got, err := svc.Read(ctx, addr)
		if err != nil || !bytes.Equal(got, payload32(byte(addr))) {
			t.Fatalf("sibling read %d wrong after shard-1 fail-stop (err %v)", addr, err)
		}
	}
	// And shard 1 keeps refusing with the terminal error.
	if _, err := svc.Read(ctx, 4); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("failed shard read returned %v, want ErrUnrecoverable", err)
	}

	st := svc.Stats()
	if st.Failed != 1 || st.Healthy != 2 {
		t.Fatalf("state summary %+v, want 1 failed / 2 healthy", st)
	}
	if st.Total.State != StateDegraded {
		t.Fatalf("router state %v, want degraded", st.Total.State)
	}
	if st.PerShard[1].Stats.State != StateFailed {
		t.Fatalf("shard 1 state %v, want failed", st.PerShard[1].Stats.State)
	}
}

// TestShardedRestartShard kills one shard's supervisor mid-write and
// brings it back with RestartShard: siblings serve throughout, every
// acknowledged write survives, and the killed in-flight write resolves
// to exactly its old or new value.
func TestShardedRestartShard(t *testing.T) {
	const shards, blocks = 3, 24
	cfg := shardedTestConfig(shards, blocks)
	// The test restarts shard 2 itself: the self-heal loop would race it
	// and could restart the shard before the ErrShardDown read below.
	cfg.SelfHeal = SelfHealConfig{Disable: true}
	var armed, fired atomic.Bool
	consult := 0
	cfg.PerShard = func(_ RoutingPolicy, shard int, sc *ServiceConfig) {
		if shard == 2 {
			sc.crashHook = func(CrashPoint) bool {
				if !armed.Load() || fired.Load() {
					return false
				}
				consult++ // supervisor goroutine only
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

	oracle := make(map[uint64][]byte)
	write := func(addr uint64, tag byte) error {
		err := svc.Write(ctx, addr, payload32(tag))
		if err == nil {
			oracle[addr] = payload32(tag)
		}
		return err
	}
	// Ack a write on every shard first.
	for addr := uint64(0); addr < shards; addr++ {
		if err := write(addr, byte(addr)); err != nil {
			t.Fatalf("warmup write %d: %v", addr, err)
		}
	}
	// Hammer shard 2 until the armed kill fires.
	armed.Store(true)
	var pending pendingWrite
	killed := false
	for tag := byte(10); tag < 40 && !killed; tag++ {
		addr := uint64(2 + 3*int(tag%5))
		pending = pendingWrite{addr: addr, old: oracle[addr], new: payload32(tag)}
		err := svc.Write(ctx, addr, payload32(tag))
		switch {
		case err == nil:
			oracle[addr] = payload32(tag)
		case errors.Is(err, ErrShardDown):
			killed = true
		default:
			t.Fatalf("unexpected write error: %v", err)
		}
	}
	if !killed {
		t.Fatal("armed kill never fired")
	}

	// One shard down, siblings serve: reads and writes on shards 0 and 1
	// succeed while shard 2 refuses with ErrShardDown.
	if err := write(0, 0xC0); err != nil {
		t.Fatalf("sibling write failed while shard 2 down: %v", err)
	}
	if got, err := svc.Read(ctx, 1); err != nil || !bytes.Equal(got, oracle[1]) {
		t.Fatalf("sibling read wrong while shard 2 down (err %v)", err)
	}
	if _, err := svc.Read(ctx, 5); !errors.Is(err, ErrShardDown) {
		t.Fatalf("dead shard returned %v, want ErrShardDown", err)
	}
	if st := svc.Stats(); st.Down != 1 || st.Healthy != 2 || st.Total.State != StateDegraded {
		t.Fatalf("state summary with one shard down: %+v", st)
	}

	if err := svc.RestartShard(2); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Healthy != shards || st.Total.State != StateHealthy {
		t.Fatalf("state summary after restart: %+v", st)
	}
	// Every acknowledged write survived the shard death.
	for addr, want := range oracle {
		got, err := svc.Read(ctx, addr)
		if err != nil {
			t.Fatalf("read %d after restart: %v", addr, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("acknowledged write at %d lost across shard restart", addr)
		}
	}
	// The killed in-flight write resolved to old or new, nothing else.
	got, err := svc.Read(ctx, pending.addr)
	if err != nil {
		t.Fatal(err)
	}
	old := pending.old
	if old == nil {
		old = make([]byte, 32)
	}
	if !bytes.Equal(got, pending.new) && !bytes.Equal(got, old) {
		t.Fatalf("in-flight write at %d resolved to neither old nor new", pending.addr)
	}
}

// TestShardedReopenFromStores closes a fleet and rebuilds it over the
// same per-shard durable stores: per-shard cold-start recovery must
// reconstruct every acknowledged write.
func TestShardedReopenFromStores(t *testing.T) {
	const shards, blocks = 3, 18
	wals := make([]*wal.MemStore, shards)
	ckpts := make([]*MemCheckpointStore, shards)
	for i := range wals {
		wals[i] = wal.NewMemStore()
		ckpts[i] = NewMemCheckpointStore()
	}
	cfg := shardedTestConfig(shards, blocks)
	cfg.PerShard = func(_ RoutingPolicy, shard int, sc *ServiceConfig) {
		sc.WAL = wals[shard]
		sc.Checkpoints = ckpts[shard]
	}
	svc, err := NewShardedService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for addr := uint64(0); addr < blocks; addr++ {
		if err := svc.Write(ctx, addr, payload32(byte(addr+100))); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc2, err := NewShardedService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	for addr := uint64(0); addr < blocks; addr++ {
		got, err := svc2.Read(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload32(byte(addr+100))) {
			t.Fatalf("addr %d lost across fleet reopen", addr)
		}
	}
}

// shardTrace collects one shard's bus observations. Each shard's
// Observer runs only on that shard's supervisor goroutine, so the slice
// needs no locking; it is read after Close (happens-after).
type shardTrace struct {
	obs []adversary.Observation
}

func (s *shardTrace) observe(label uint64, dummy bool, reads, writes []uint64) {
	s.obs = append(s.obs, adversary.Observation{
		Label:      label,
		ReadNodes:  append([]tree.Node(nil), reads...),
		WriteNodes: append([]tree.Node(nil), writes...),
	})
}

// TestShardedPerShardTraces is the sharded obliviousness check: under a
// concurrent cross-shard workload, every shard's bus trace must
// independently be a valid Fork Path trace (reads/writes are exactly
// the overlap-suffixes of the revealed label sequence) with uniform
// labels over the shard's own leaves. Runs under -race via make race.
func TestShardedPerShardTraces(t *testing.T) {
	const shards, blocks = 3, 48
	traces := make([]*shardTrace, shards)
	cfg := shardedTestConfig(shards, blocks)
	cfg.Service.CheckpointEvery = 1 << 30 // no mid-trace checkpoints; Close's final one drains through the same engine
	cfg.PerShard = func(_ RoutingPolicy, shard int, sc *ServiceConfig) {
		tr := &shardTrace{}
		traces[shard] = tr
		sc.Device.Observer = tr.observe
	}
	svc, err := NewShardedService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Concurrent clients with very different secret patterns, spanning
	// all shards: sequential sweep, single hot address, strided hammer,
	// and cross-shard batches.
	var wg sync.WaitGroup
	patterns := []func(i int) uint64{
		func(i int) uint64 { return uint64(i) % blocks },
		func(i int) uint64 { return 7 },
		func(i int) uint64 { return uint64(i*13+5) % blocks },
	}
	errCh := make(chan error, len(patterns)+1)
	for c, pat := range patterns {
		wg.Add(1)
		go func(c int, pat func(i int) uint64) {
			defer wg.Done()
			for i := 0; i < 220; i++ {
				addr := pat(i)
				var err error
				if i%2 == 0 {
					err = svc.Write(ctx, addr, payload32(byte(c*64+i)))
				} else {
					_, err = svc.Read(ctx, addr)
				}
				if err != nil {
					errCh <- fmt.Errorf("client %d op %d: %w", c, i, err)
					return
				}
			}
		}(c, pat)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			ops := []BatchOp{
				{Addr: uint64(i) % blocks},
				{Addr: uint64(i+1) % blocks, Write: true, Data: payload32(byte(i))},
				{Addr: uint64(i+2*shards) % blocks},
			}
			if _, err := svc.Batch(ctx, ops); err != nil {
				errCh <- fmt.Errorf("batch client op %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	fleet := adversary.NewFleet(shardTrees(svc))
	for i, tr := range traces {
		for _, o := range tr.obs {
			fleet.Shard(i).Observe(o)
		}
		if fleet.Shard(i).Len() < 40 {
			t.Fatalf("shard %d trace too short (%d accesses) for the uniformity test", i, fleet.Shard(i).Len())
		}
	}
	if err := fleet.CheckForkConsistency(nil); err != nil {
		t.Fatalf("per-shard trace not fork-consistent: %v", err)
	}
	if err := fleet.CheckLabelUniformity(8); err != nil {
		t.Fatalf("per-shard labels not uniform: %v", err)
	}
}

// shardTrees returns each shard device's tree geometry (in-package test
// hook; geometry is public information).
func shardTrees(r *ShardedService) []tree.Tree {
	trees := make([]tree.Tree, r.Shards())
	for i := range trees {
		trees[i] = r.shard(i).dev.tr
	}
	return trees
}
