package forkoram

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"forkoram/internal/faults"
	"forkoram/internal/rng"
	"forkoram/internal/wal"
)

// ShardedCrashChaosConfig parameterizes RunShardedCrashChaos: the
// crash-at-every-point campaign of crashchaos.go lifted to a
// ShardedService fleet. Kills land in ONE shard's supervisor at a time
// (each shard has its own crash plan over its own journal), which is
// exactly the failure the sharded design must isolate: while a shard is
// down, every sibling is probed for reads AND writes before the dead
// shard is restarted from its surviving stores.
type ShardedCrashChaosConfig struct {
	// Seed derives every schedule's workload, fleet, crash and fault
	// seeds.
	Seed uint64
	// Schedules is the number of independent crash schedules (default
	// 100). Each schedule runs once per Device variant (2×Schedules
	// fleet lifetimes).
	Schedules int
	// Ops is the number of client operations per schedule (default 64).
	Ops int
	// Blocks / BlockSize size the GLOBAL address space (defaults 60/32).
	Blocks    uint64
	BlockSize int
	// Shards is the fleet width (default 3).
	Shards int
	// MaxCrashes bounds the kills injected per schedule across the whole
	// fleet (default 4); the budget is shared so schedules stay bounded
	// no matter how wide the fleet is.
	MaxCrashes int
	// Faults additionally runs half the schedules with low-rate
	// transient storage faults on every shard (per-shard fault epochs),
	// composing in-process supervised healing with shard death.
	Faults bool
}

func (c ShardedCrashChaosConfig) withDefaults() ShardedCrashChaosConfig {
	if c.Schedules == 0 {
		c.Schedules = 100
	}
	if c.Ops == 0 {
		c.Ops = 64
	}
	if c.Blocks == 0 {
		c.Blocks = 60
	}
	if c.BlockSize == 0 {
		c.BlockSize = 32
	}
	if c.Shards == 0 {
		c.Shards = 3
	}
	if c.MaxCrashes == 0 {
		c.MaxCrashes = 4
	}
	return c
}

// ShardedCrashReport aggregates a RunShardedCrashChaos campaign.
type ShardedCrashReport struct {
	Schedules int    // fleet lifetimes executed (2× config.Schedules)
	Shards    int    // fleet width
	Ops       uint64 // client operations attempted
	Acked     uint64 // acknowledged mutations the oracle holds the fleet to

	Crashes    uint64                 // kills injected (all shards)
	PointHits  [numCrashPoints]uint64 // kills per CrashPoint
	ShardKills []uint64               // kills per shard index
	Restarts   uint64                 // RestartShard cold starts that came up

	// DownEvents counts distinct one-or-more-shards-down episodes;
	// SiblingReads/SiblingWrites the operations served by healthy
	// siblings WHILE a shard was down (the isolation property this
	// campaign exists to certify — both stay comfortably nonzero).
	DownEvents    uint64
	SiblingReads  uint64
	SiblingWrites uint64

	Recoveries  uint64 // in-process supervised restores across all shards
	ReplayedOps uint64
	Checkpoints uint64

	LostAcks          uint64
	SilentCorruptions uint64
	Violations        []string
}

// Ok reports whether the campaign finished with no violations.
func (r *ShardedCrashReport) Ok() bool { return len(r.Violations) == 0 }

func (r *ShardedCrashReport) violate(format string, args ...any) {
	if len(r.Violations) < 20 {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// String renders the report for the CLI.
func (r *ShardedCrashReport) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "sharded-crash-chaos: %d fleet lifetimes x %d shards, %d ops, %d acked mutations\n",
		r.Schedules, r.Shards, r.Ops, r.Acked)
	fmt.Fprintf(&b, "  crashes: %d injected (", r.Crashes)
	for p := 0; p < numCrashPoints; p++ {
		if p > 0 {
			fmt.Fprintf(&b, ", ")
		}
		fmt.Fprintf(&b, "%d %s", r.PointHits[p], CrashPoint(p))
	}
	fmt.Fprintf(&b, ")\n  per-shard kills: %v, %d shard restarts\n", r.ShardKills, r.Restarts)
	fmt.Fprintf(&b, "  isolation: %d shard-down episodes; siblings served %d reads + %d writes while a shard was down\n",
		r.DownEvents, r.SiblingReads, r.SiblingWrites)
	fmt.Fprintf(&b, "  healing: %d in-process recoveries, %d journal records replayed, %d checkpoints\n",
		r.Recoveries, r.ReplayedOps, r.Checkpoints)
	fmt.Fprintf(&b, "  lost acknowledged writes: %d, silent corruptions: %d\n",
		r.LostAcks, r.SilentCorruptions)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
	}
	if r.Ok() {
		fmt.Fprintf(&b, "  ok: every acknowledged write survived every shard death\n")
	}
	return b.String()
}

// shardKillPlan arms kills at pseudo-random crash-hook consultations of
// ONE shard's supervisor (same spreading discipline as crashPlan). The
// kill budget is shared across the fleet through an atomic counter:
// each shard's hook runs on that shard's own supervisor goroutine.
type shardKillPlan struct {
	mu     sync.Mutex // serializes concurrent-stage consultations (see crashPlan.mu)
	wl     *rng.Source
	store  *wal.MemStore
	budget *atomic.Int64
	count  uint64
	next   uint64
	hits   [numCrashPoints]uint64
	kills  uint64
}

func newShardKillPlan(seed uint64, budget *atomic.Int64, span uint64) *shardKillPlan {
	p := &shardKillPlan{wl: rng.New(seed), budget: budget}
	p.next = 1 + p.wl.Uint64n(span)
	return p
}

// fire consumes one unit of the fleet-wide kill budget if this
// consultation is armed.
func (p *shardKillPlan) fire() bool {
	p.count++
	if p.count < p.next || p.budget.Load() <= 0 {
		return false
	}
	if p.budget.Add(-1) < 0 {
		p.budget.Add(1) // lost the race for the last unit
		return false
	}
	p.next = p.count + 1 + p.wl.Uint64n(24)
	return true
}

// hook is the shard's ServiceConfig.crashHook; a firing kill also tears
// the shard's unsynced journal buffer at a random byte boundary.
func (p *shardKillPlan) hook(pt CrashPoint) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.fire() {
		return false
	}
	p.hits[pt]++
	p.kills++
	p.store.Crash(int(p.wl.Uint64n(uint64(p.store.Buffered()) + 1)))
	return true
}

// truncateCrash is the shard journal's MemStore.CrashTruncate hook: a
// kill inside wal.Open's torn-tail truncation during the shard's own
// cold-start recovery.
func (p *shardKillPlan) truncateCrash(int) (error, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.fire() {
		return nil, false
	}
	p.hits[CrashMidCompaction]++
	p.kills++
	return errKilled, p.wl.Uint64n(2) == 0
}

// RunShardedCrashChaos runs the per-shard crash campaign: for each
// schedule (and each Device variant) it stands up a ShardedService over
// per-shard in-memory journal and checkpoint stores, drives a random
// cross-shard read/write/batch workload against a plain map oracle, and
// kills individual shard supervisors at crash-hook-selected points.
// After every kill it (1) asserts each healthy sibling still serves
// reads and writes — the one-shard-down-while-others-serve schedules —
// then (2) restarts the dead shard from its surviving stores with
// RestartShard (itself killable mid-recovery) and (3) resolves every
// in-flight mutation by read-back: old or new value, nothing else. The
// final sweep reads the whole global address space, closes the fleet,
// and scrubs every shard device.
func RunShardedCrashChaos(cfg ShardedCrashChaosConfig) ShardedCrashReport {
	cfg = cfg.withDefaults()
	rep := ShardedCrashReport{
		Schedules:  2 * cfg.Schedules,
		Shards:     cfg.Shards,
		ShardKills: make([]uint64, cfg.Shards),
	}
	for i := 0; i < cfg.Schedules; i++ {
		for _, v := range []Variant{Baseline, Fork} {
			runShardedCrashSchedule(&rep, cfg, uint64(i), v)
		}
	}
	return rep
}

// shardedCrashState is one schedule's live state.
type shardedCrashState struct {
	rep *ShardedCrashReport
	cfg ShardedCrashChaosConfig
	id  string

	svc    *ShardedService
	plans  []*shardKillPlan
	oracle map[uint64][]byte
	pend   []pendingWrite // in-flight writes awaiting read-back resolution
	// busy is the address a readBack is mid-retry on (excluded from
	// sibling probes: a probe write there would invalidate the oracle
	// value the read is about to be compared against).
	busy    uint64
	busySet bool
	dead    bool
}

func runShardedCrashSchedule(rep *ShardedCrashReport, cfg ShardedCrashChaosConfig, idx uint64, variant Variant) {
	seed := rng.SeedAt(cfg.Seed, 2*idx+uint64(variant))
	var budget atomic.Int64
	budget.Store(int64(cfg.MaxCrashes))
	plans := make([]*shardKillPlan, cfg.Shards)
	for i := range plans {
		// First kill lands anywhere in the schedule: per-shard hook
		// traffic is roughly the single-service rate over Shards.
		span := uint64(cfg.Ops)*3/(2*uint64(cfg.Shards)) + 8
		plans[i] = newShardKillPlan(rng.SeedAt(seed, 10+uint64(i)), &budget, span)
	}
	var fc *faults.Config
	retries := 0
	// Same schedule matrix as the single-service campaign: even idx gets
	// the Integrity decorator, idx ≡ 1 (mod 4) fault injection, and
	// idx ≡ 3 (mod 4) a plain medium — the only decoration the staged
	// pipeline engages over, so mid-pipeline kills fire on those.
	if cfg.Faults && idx%4 == 1 {
		p := 0.002 / 3
		fc = &faults.Config{
			Seed:           rng.SeedAt(seed, 2),
			PTransientRead: p, PTransientWrite: p, PDroppedWrite: p,
		}
		retries = -1 // every transient poisons: supervised healing runs under the kills
	}
	st := &shardedCrashState{
		rep:    rep,
		cfg:    cfg,
		id:     fmt.Sprintf("schedule %d/%v", idx, variant),
		plans:  plans,
		oracle: make(map[uint64][]byte),
	}
	scfg := ShardedServiceConfig{
		Shards: cfg.Shards,
		Service: ServiceConfig{
			Device: DeviceConfig{
				Blocks:    cfg.Blocks,
				BlockSize: cfg.BlockSize,
				QueueSize: 4,
				Seed:      rng.SeedAt(seed, 3),
				Variant:   variant,
				Integrity: idx%2 == 0,
				Retries:   retries,
				Faults:    fc,
				// Pipelined engine on plain-medium schedules (no-op
				// under the decorators), so shard kills land mid-window
				// and mid-serve (CrashMidServe) too.
				PipelineDepth: 4,
			},
			// Odd schedules also pipeline across dispatch windows, so
			// shard kills land on the committer/applier seam
			// (CrashMidWindowSeam).
			CrossWindow:     idx%2 == 1,
			QueueDepth:      8,
			CheckpointEvery: 8,
			MaxRecoveries:   50,
			BackoffBase:     time.Nanosecond,
			BackoffMax:      time.Nanosecond,
		},
	}
	// Each shard gets its own journal (with the shard's torn-tail kill
	// hook), checkpoint store, and crash plan. The stores are created
	// once and captured by the PerShard hook, so RestartShard — which
	// re-runs NewService over r.cfgs[i] — reopens the SAME stores the
	// kill tore.
	wals := make([]*wal.MemStore, cfg.Shards)
	ckpts := make([]*MemCheckpointStore, cfg.Shards)
	// Dead shards must stay dead until the harness's own heal step:
	// sibling probes assert ErrShardDown and the oracle's resolution
	// order depends on restarts being driven deterministically.
	scfg.SelfHeal = SelfHealConfig{Disable: true}
	scfg.PerShard = func(_ RoutingPolicy, shard int, sc *ServiceConfig) {
		if wals[shard] == nil {
			wals[shard] = wal.NewMemStore()
			wals[shard].CrashTruncate = plans[shard].truncateCrash
			plans[shard].store = wals[shard]
			ckpts[shard] = NewMemCheckpointStore()
		}
		sc.WAL = wals[shard]
		sc.Checkpoints = ckpts[shard]
		sc.crashHook = plans[shard].hook
		sc.sleep = func(time.Duration) {}
	}
	defer func() {
		st.retireFleet()
		for i, p := range plans {
			rep.ShardKills[i] += p.kills
			rep.Crashes += p.kills
			for pt, n := range p.hits {
				rep.PointHits[pt] += n
			}
		}
	}()
	// Initial construction passes the same crash points as any cold
	// start; loop until a fleet survives its own birth (budget-bounded).
	for {
		svc, err := NewShardedService(scfg)
		if err == nil {
			st.svc = svc
			break
		}
		if !errors.Is(err, errKilled) {
			rep.violate("%s: open fleet: %v", st.id, err)
			return
		}
	}
	st.drive(rng.New(rng.SeedAt(seed, 4)), seed)
	if st.dead {
		return
	}
	// Final sweep: read-your-writes over the whole global address space.
	for addr := uint64(0); addr < cfg.Blocks && !st.dead; addr++ {
		st.rep.Ops++
		st.checkRead(addr)
	}
	if st.dead {
		return
	}
	// Clean shutdown: a kill landing inside a shard's final checkpoint
	// is a crash like any other — heal that shard and close again.
	for !st.dead {
		err := st.svc.Close()
		if err == nil {
			break
		}
		if !errors.Is(err, errKilled) {
			rep.violate("%s: close: %v", st.id, err)
			return
		}
		// Heal, not just recover: the sibling probes can leave their own
		// in-flight writes, settled before the next Close attempt.
		st.heal()
	}
	if st.dead {
		return
	}
	for i := 0; i < cfg.Shards; i++ {
		if err := st.svc.shard(i).dev.Scrub(); err != nil {
			rep.violate("%s: shard %d scrub after close: %v", st.id, i, err)
		}
	}
}

// drive runs the client workload: writes, reads, cross-shard batches,
// and concurrent bursts spanning shards.
func (st *shardedCrashState) drive(wl *rng.Source, seed uint64) {
	ctx := context.Background()
	var counter uint64
	for op := 0; op < st.cfg.Ops && !st.dead; op++ {
		st.rep.Ops++
		switch roll := wl.Float64(); {
		case roll < 0.40: // write
			addr := wl.Uint64n(st.cfg.Blocks)
			counter++
			data := chaosPayload(st.cfg.BlockSize, seed, counter)
			pend := []pendingWrite{{addr: addr, old: st.oracle[addr], new: data}}
			err := st.svc.Write(ctx, addr, data)
			if !st.settle(err, pend, "write") {
				continue
			}
			st.oracle[addr] = data
			st.rep.Acked++
		case roll < 0.60: // cross-shard batch: distinct addresses, mixed ops
			n := 2 + int(wl.Uint64n(4))
			ops := make([]BatchOp, 0, n)
			var pend []pendingWrite
			used := make(map[uint64]bool)
			for len(ops) < n {
				addr := wl.Uint64n(st.cfg.Blocks)
				if used[addr] {
					continue
				}
				used[addr] = true
				if wl.Float64() < 0.6 {
					counter++
					data := chaosPayload(st.cfg.BlockSize, seed, counter)
					ops = append(ops, BatchOp{Addr: addr, Write: true, Data: data})
					pend = append(pend, pendingWrite{addr: addr, old: st.oracle[addr], new: data})
				} else {
					ops = append(ops, BatchOp{Addr: addr})
				}
			}
			out, err := st.svc.Batch(ctx, ops)
			// A cross-shard batch commits per shard: on a mid-batch kill,
			// sub-batches on surviving shards may be durably applied, so
			// EVERY write in the batch settles as in-flight.
			if !st.settle(err, pend, "batch") {
				continue
			}
			for i, o := range ops {
				if o.Write {
					st.oracle[o.Addr] = o.Data
					st.rep.Acked++
				} else {
					st.compareRead(o.Addr, out[i])
				}
			}
		case roll < 0.70: // burst: concurrent writes racing across shards
			n := 2 + int(wl.Uint64n(3))
			pend := make([]pendingWrite, 0, n)
			used := make(map[uint64]bool)
			for len(pend) < n {
				addr := wl.Uint64n(st.cfg.Blocks)
				if used[addr] {
					continue
				}
				used[addr] = true
				counter++
				pend = append(pend, pendingWrite{
					addr: addr, old: st.oracle[addr],
					new: chaosPayload(st.cfg.BlockSize, seed, counter),
				})
			}
			st.rep.Ops += uint64(len(pend) - 1)
			errs := make([]error, len(pend))
			var wg sync.WaitGroup
			for i := range pend {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = st.svc.Write(ctx, pend[i].addr, pend[i].new)
				}(i)
			}
			wg.Wait()
			killed := false
			for i, err := range errs {
				switch {
				case err == nil:
					st.oracle[pend[i].addr] = pend[i].new
					st.rep.Acked++
				case errors.Is(err, errKilled):
					killed = true
					st.pend = append(st.pend, pend[i])
				default:
					st.rep.violate("%s: burst write failed with unexpected error: %v", st.id, err)
					st.dead = true
				}
			}
			if killed && !st.dead {
				st.heal()
			}
		default: // read
			st.checkRead(wl.Uint64n(st.cfg.Blocks))
		}
	}
}

// settle classifies an operation's error: nil means acknowledged,
// errKilled means a shard died with the mutations in flight — heal the
// fleet (sibling probes + restarts) and resolve each pending write.
// Reports whether the operation was acknowledged.
func (st *shardedCrashState) settle(err error, pend []pendingWrite, what string) bool {
	if err == nil {
		return true
	}
	if !errors.Is(err, errKilled) {
		st.rep.violate("%s: %s failed with unexpected error: %v", st.id, what, err)
		st.dead = true
		return false
	}
	st.pend = append(st.pend, pend...)
	st.heal()
	return false
}

// heal brings the fleet back to full strength and resolves every
// pending in-flight write. Kills landing during the healing itself
// (sibling probes, restarts, read-backs) loop back in; the fleet-wide
// kill budget bounds the loop.
func (st *shardedCrashState) heal() {
	if !st.recoverShards() {
		return
	}
	for len(st.pend) > 0 && !st.dead {
		// Peek, don't pop: the write stays visible to siblingProbe's
		// exclusion set while its own read-back may trigger more healing.
		p := st.pend[0]
		st.resolve(p)
		st.pend = st.pend[1:]
	}
}

// recoverShards restarts every killed shard — but FIRST probes each
// healthy sibling for a read and a write, certifying that a down shard
// degrades only its own residue class. Reports false if the schedule
// died.
func (st *shardedCrashState) recoverShards() bool {
	for !st.dead {
		downs := st.killedShards()
		if len(downs) == 0 {
			return true
		}
		st.rep.DownEvents++
		st.siblingProbe(downs)
		if st.dead {
			return false
		}
		for _, i := range downs {
			if !st.restartShard(i) {
				return false
			}
		}
	}
	return false
}

// killedShards lists shards whose supervisor exited from an injected
// crash.
func (st *shardedCrashState) killedShards() []int {
	var downs []int
	for i := 0; i < st.cfg.Shards; i++ {
		if st.svc.shard(i).Stats().State == stateKilled {
			downs = append(downs, i)
		}
	}
	return downs
}

// siblingProbe drives one read and one write through every healthy
// shard while the shards in downs are still dead. A probe op that is
// itself killed (another shard's plan firing) just queues its pending
// write; the caller's loop picks up the new corpse.
func (st *shardedCrashState) siblingProbe(downs []int) {
	down := make(map[int]bool, len(downs))
	for _, i := range downs {
		down[i] = true
	}
	// Probes must not touch addresses with unresolved in-flight writes:
	// their oracle entry is ambiguous until resolve() reads them back,
	// and a probe write would destroy the old-or-new evidence.
	pending := make(map[uint64]bool, len(st.pend))
	for _, p := range st.pend {
		pending[p.addr] = true
	}
	if st.busySet {
		pending[st.busy] = true
	}
	ctx := context.Background()
	for sh := 0; sh < st.cfg.Shards && !st.dead; sh++ {
		if down[sh] {
			// The dead shard itself must refuse, not hang or misroute.
			if _, err := st.svc.Read(ctx, uint64(sh)); !errors.Is(err, ErrShardDown) {
				st.rep.violate("%s: dead shard %d returned %v, want ErrShardDown", st.id, sh, err)
				st.dead = true
			}
			continue
		}
		if st.svc.shard(sh).Stats().State != StateHealthy {
			continue
		}
		// Probe an address owned by shard sh (addr ≡ sh mod Shards) that
		// has no unresolved in-flight write.
		addr, ok := uint64(0), false
		for a := uint64(sh); a < st.cfg.Blocks; a += uint64(st.cfg.Shards) {
			if !pending[a] {
				addr, ok = a, true
				break
			}
		}
		if !ok {
			continue
		}
		st.rep.Ops++
		got, err := st.svc.Read(ctx, addr)
		switch {
		case err == nil:
			st.compareRead(addr, got)
			st.rep.SiblingReads++
		case errors.Is(err, errKilled): // this sibling died too; next round
			continue
		default:
			st.rep.violate("%s: sibling read on shard %d failed while shard(s) %v down: %v", st.id, sh, downs, err)
			st.dead = true
			continue
		}
		st.rep.Ops++
		data := chaosPayload(st.cfg.BlockSize, uint64(sh)^0x51b11e6, st.rep.Crashes+st.rep.Ops)
		p := pendingWrite{addr: addr, old: st.oracle[addr], new: data}
		switch err := st.svc.Write(ctx, addr, data); {
		case err == nil:
			st.oracle[addr] = data
			st.rep.Acked++
			st.rep.SiblingWrites++
		case errors.Is(err, errKilled):
			st.pend = append(st.pend, p)
			pending[addr] = true
		default:
			st.rep.violate("%s: sibling write on shard %d failed while shard(s) %v down: %v", st.id, sh, downs, err)
			st.dead = true
		}
	}
}

// restartShard folds the dead incarnation's stats, then cold-starts the
// shard from its surviving stores. The restart's own recovery passes
// crash points; loop until an incarnation survives (budget-bounded).
func (st *shardedCrashState) restartShard(i int) bool {
	st.retireShard(i)
	for {
		err := st.svc.RestartShard(i)
		if err == nil {
			st.rep.Restarts++
			return true
		}
		if !errors.Is(err, errKilled) {
			st.rep.violate("%s: shard %d restart: %v", st.id, i, err)
			st.dead = true
			return false
		}
	}
}

// resolve settles one in-flight write by read-back: new value (durable
// and replayed — promote the oracle) or old value (torn away pre-ack),
// anything else corrupted data.
func (st *shardedCrashState) resolve(p pendingWrite) {
	got, ok := st.readBack(p.addr)
	if !ok {
		return
	}
	old := p.old
	if old == nil {
		old = make([]byte, st.cfg.BlockSize)
	}
	switch {
	case bytes.Equal(got, p.new):
		st.oracle[p.addr] = p.new
	case bytes.Equal(got, old):
		// Torn away pre-ack: legitimate for an unacknowledged write.
	default:
		st.rep.SilentCorruptions++
		st.rep.violate("%s: in-flight write at addr %d resolved to neither old nor new value", st.id, p.addr)
	}
}

// checkRead reads addr and holds the result to the oracle. A kill
// landing during the read heals the fleet, and the sibling probes may
// leave their own in-flight writes behind — settle them before the
// next client op can overwrite their evidence.
func (st *shardedCrashState) checkRead(addr uint64) {
	got, ok := st.readBack(addr)
	if ok {
		st.compareRead(addr, got)
	}
	if len(st.pend) > 0 && !st.dead {
		st.heal()
	}
}

// readBack reads addr, healing the fleet through any kill that lands
// during the read. ok=false means the schedule died.
func (st *shardedCrashState) readBack(addr uint64) ([]byte, bool) {
	st.busy, st.busySet = addr, true
	defer func() { st.busySet = false }()
	for !st.dead {
		got, err := st.svc.Read(context.Background(), addr)
		if err == nil {
			return got, true
		}
		if !errors.Is(err, errKilled) {
			st.rep.violate("%s: read %d failed with unexpected error: %v", st.id, addr, err)
			st.dead = true
			return nil, false
		}
		if !st.recoverShards() {
			return nil, false
		}
	}
	return nil, false
}

// compareRead holds a successful read to the oracle.
func (st *shardedCrashState) compareRead(addr uint64, got []byte) {
	want, acked := st.oracle[addr]
	if want == nil {
		want = make([]byte, st.cfg.BlockSize)
	}
	if !bytes.Equal(got, want) {
		st.rep.SilentCorruptions++
		if acked {
			st.rep.LostAcks++
			st.rep.violate("%s: acknowledged write at addr %d lost after shard recovery", st.id, addr)
		} else {
			st.rep.violate("%s: read at addr %d returned wrong data", st.id, addr)
		}
	}
}

// retireShard folds one dead incarnation's counters into the report
// (per-incarnation stats, folded exactly once: before its restart or by
// retireFleet at schedule end).
func (st *shardedCrashState) retireShard(i int) {
	s := st.svc.shard(i).Stats()
	st.rep.Recoveries += s.Recoveries
	st.rep.ReplayedOps += s.ReplayedOps
	st.rep.Checkpoints += s.Checkpoints
}

// retireFleet folds every live incarnation at schedule end.
func (st *shardedCrashState) retireFleet() {
	if st.svc == nil {
		return
	}
	for i := 0; i < st.cfg.Shards; i++ {
		st.retireShard(i)
	}
	st.svc = nil
}

// ---------------------------------------------------------------------
// Mid-migration crash campaign: kills at every ReshardCrashPoint of an
// online reshard, concurrent client traffic throughout, full rebuild
// over the surviving stores after every router death.
// ---------------------------------------------------------------------

// ReshardChaosConfig parameterizes RunReshardCrashChaos.
type ReshardChaosConfig struct {
	// Seed derives every schedule's workload, kill and store seeds.
	Seed uint64
	// Schedules is the number of independent schedules (default 100);
	// each runs once per Device variant (2×Schedules fleet lifetimes).
	Schedules int
	// Ops is the number of client operations driven concurrently with
	// the migration per schedule (default 96), prefill and final sweep
	// excluded.
	Ops int
	// Blocks / BlockSize size the GLOBAL address space (defaults 48/32).
	Blocks    uint64
	BlockSize int
	// Shards is the fleet's starting width (default 2); every schedule
	// splits to Shards+AddShards (default +2), and odd schedules then
	// merge back — so both directions run under kills.
	Shards    int
	AddShards int
	// ChunkBlocks is the migration chunk size (default 8).
	ChunkBlocks int
	// MaxRouterKills bounds router kills per schedule (default 3). Each
	// schedule focuses its first kill on one ReshardCrashPoint (rotating
	// by schedule index, so a full campaign covers all five); later
	// kills land at random consultations.
	MaxRouterKills int
	// MaxShardKills bounds ordinary shard-supervisor kills per schedule
	// (default 2): shard death composes with the migration, which must
	// stall and retry, never abort.
	MaxShardKills int
}

func (c ReshardChaosConfig) withDefaults() ReshardChaosConfig {
	if c.Schedules == 0 {
		c.Schedules = 100
	}
	if c.Ops == 0 {
		c.Ops = 96
	}
	if c.Blocks == 0 {
		c.Blocks = 48
	}
	if c.BlockSize == 0 {
		c.BlockSize = 32
	}
	if c.Shards == 0 {
		c.Shards = 2
	}
	if c.AddShards == 0 {
		c.AddShards = 2
	}
	if c.ChunkBlocks == 0 {
		c.ChunkBlocks = 8
	}
	if c.MaxRouterKills == 0 {
		c.MaxRouterKills = 3
	}
	if c.MaxShardKills == 0 {
		c.MaxShardKills = 2
	}
	return c
}

// ReshardChaosReport aggregates a RunReshardCrashChaos campaign.
type ReshardChaosReport struct {
	Schedules int    // fleet lifetimes executed (2× config.Schedules)
	Ops       uint64 // client operations attempted
	Acked     uint64 // acknowledged mutations the oracle holds the fleet to

	// Migrations counts committed cutovers; BlocksMoved/Chunks the copy
	// work (re-copied chunks after a rebuild included); Resumes the
	// Reshard calls that picked up a journaled in-progress migration.
	Migrations  uint64
	BlocksMoved uint64
	Chunks      uint64
	Resumes     uint64

	RouterKills uint64                   // router deaths injected
	PhaseHits   [numReshardPoints]uint64 // router kills per ReshardCrashPoint
	ShardKills  uint64                   // shard-supervisor deaths injected
	Rebuilds    uint64                   // full NewShardedService rebuilds after router death

	// MigReads/MigWrites count client operations acknowledged WHILE a
	// migration epoch was open — the no-full-stop-window property; both
	// stay comfortably nonzero.
	MigReads  uint64
	MigWrites uint64

	LostAcks          uint64
	SilentCorruptions uint64
	Violations        []string
}

// Ok reports whether the campaign finished with no violations.
func (r *ReshardChaosReport) Ok() bool { return len(r.Violations) == 0 }

func (r *ReshardChaosReport) violate(format string, args ...any) {
	if len(r.Violations) < 20 {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// String renders the report for the CLI.
func (r *ReshardChaosReport) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "reshard-crash-chaos: %d fleet lifetimes, %d ops, %d acked mutations\n",
		r.Schedules, r.Ops, r.Acked)
	fmt.Fprintf(&b, "  migrations: %d committed cutovers, %d blocks copied in %d chunks, %d resumes\n",
		r.Migrations, r.BlocksMoved, r.Chunks, r.Resumes)
	fmt.Fprintf(&b, "  router kills: %d (", r.RouterKills)
	for p := 0; p < numReshardPoints; p++ {
		if p > 0 {
			fmt.Fprintf(&b, ", ")
		}
		fmt.Fprintf(&b, "%d %s", r.PhaseHits[p], ReshardCrashPoint(p))
	}
	fmt.Fprintf(&b, ")\n  shard kills: %d, fleet rebuilds: %d\n", r.ShardKills, r.Rebuilds)
	fmt.Fprintf(&b, "  during migration: %d reads + %d writes acknowledged (dual routing, no full-stop window)\n",
		r.MigReads, r.MigWrites)
	fmt.Fprintf(&b, "  lost acknowledged writes: %d, silent corruptions: %d\n",
		r.LostAcks, r.SilentCorruptions)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
	}
	if r.Ok() {
		fmt.Fprintf(&b, "  ok: every acknowledged write survived every mid-migration crash\n")
	}
	return b.String()
}

// reshardKillPlan arms router kills at ReshardCrashPoint consultations.
// Each schedule FOCUSES on one point (rotating with the schedule index,
// so a campaign of ≥5·variants schedules kills at every phase): the
// first kill fires at a pseudo-random consultation of the focus point,
// later kills at random consultations of any point. The hook is called
// from the migrator goroutine and from NewShardedService (a rebuild's
// pending retirement), so it locks.
type reshardKillPlan struct {
	mu     sync.Mutex
	wl     *rng.Source
	store  *wal.MemStore
	budget int
	focus  ReshardCrashPoint
	nth    uint64
	seen   [numReshardPoints]uint64
	hits   [numReshardPoints]uint64
	kills  uint64
}

func newReshardKillPlan(seed uint64, store *wal.MemStore, cfg ReshardChaosConfig, idx uint64) *reshardKillPlan {
	p := &reshardKillPlan{wl: rng.New(seed), store: store, budget: cfg.MaxRouterKills}
	p.focus = ReshardCrashPoint(idx % uint64(numReshardPoints))
	switch p.focus {
	case ReshardKillMidStream:
		p.nth = 1 + p.wl.Uint64n(cfg.Blocks)
	case ReshardKillAdvance:
		chunks := (cfg.Blocks + uint64(cfg.ChunkBlocks) - 1) / uint64(cfg.ChunkBlocks)
		p.nth = 1 + p.wl.Uint64n(chunks)
	default:
		p.nth = 1
	}
	return p
}

// hook kills the router and tears the router journal's unsynced buffer
// at a random byte boundary — the appended-but-sync-racing-the-crash
// outcome every kill point documents.
func (p *reshardKillPlan) hook(pt ReshardCrashPoint) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.budget <= 0 {
		return false
	}
	p.seen[pt]++
	fire := pt == p.focus && p.seen[pt] == p.nth
	if !fire && p.kills > 0 && p.wl.Float64() < 0.03 {
		fire = true
	}
	if !fire {
		return false
	}
	p.budget--
	p.hits[pt]++
	p.kills++
	p.store.Crash(int(p.wl.Uint64n(uint64(p.store.Buffered()) + 1)))
	return true
}

// reshardStoreKey identifies one shard generation's stores.
type reshardStoreKey struct {
	version uint64
	shard   int
}

// reshardShardStores owns the durable per-(policy version, shard)
// stores and shard kill plans of one schedule, created lazily by the
// PerShard hook: a fleet rebuilt mid-migration must find BOTH
// generations' journals again, keyed exactly as the hook contract says.
// PerShard runs from the constructor, the migrator's restarts, and the
// harness's heal passes, so it locks.
type reshardShardStores struct {
	mu    sync.Mutex
	wals  map[reshardStoreKey]*wal.MemStore
	ckpts map[reshardStoreKey]*MemCheckpointStore
	plans map[reshardStoreKey]*shardKillPlan
}

func (s *reshardShardStores) install(seed uint64, budget *atomic.Int64, span uint64) func(RoutingPolicy, int, *ServiceConfig) {
	return func(p RoutingPolicy, shard int, sc *ServiceConfig) {
		s.mu.Lock()
		defer s.mu.Unlock()
		k := reshardStoreKey{p.Version, shard}
		if s.wals[k] == nil {
			plan := newShardKillPlan(rng.SeedAt(seed, 100+31*p.Version+uint64(shard)), budget, span)
			w := wal.NewMemStore()
			w.CrashTruncate = plan.truncateCrash
			plan.store = w
			s.wals[k] = w
			s.ckpts[k] = NewMemCheckpointStore()
			s.plans[k] = plan
		}
		sc.WAL = s.wals[k]
		sc.Checkpoints = s.ckpts[k]
		sc.crashHook = s.plans[k].hook
		sc.sleep = func(time.Duration) {}
	}
}

// RunReshardCrashChaos runs the mid-migration crash campaign: for each
// schedule (and each Device variant) it stands up a fleet over durable
// per-(version, shard) stores and a durable router journal, prefills
// half the address space, then drives an online split to
// Shards+AddShards (odd schedules merge back afterwards) CONCURRENTLY
// with a random read/write/batch client workload held to a plain map
// oracle. The router is killed at every ReshardCrashPoint across the
// campaign; after each kill the whole fleet is rebuilt from the
// surviving stores — NewShardedService replays the torn router journal
// into the exact dual-routing state — and the migration resumed. Shard
// supervisors are killed too; the migration must stall and retry, the
// front door must keep serving the rest of the space. The campaign
// asserts 0 lost acked writes, 0 silent corruptions, and that reads
// AND writes were acknowledged while migration epochs were open.
func RunReshardCrashChaos(cfg ReshardChaosConfig) ReshardChaosReport {
	cfg = cfg.withDefaults()
	rep := ReshardChaosReport{Schedules: 2 * cfg.Schedules}
	for i := 0; i < cfg.Schedules; i++ {
		for _, v := range []Variant{Baseline, Fork} {
			runReshardSchedule(&rep, cfg, uint64(i), v)
		}
	}
	return rep
}

// reshardChaosState is one schedule's live state.
type reshardChaosState struct {
	rep *ReshardChaosReport
	cfg ReshardChaosConfig
	id  string

	scfg   ShardedServiceConfig
	svc    *ShardedService
	rplan  *reshardKillPlan
	stores *reshardShardStores
	oracle map[uint64][]byte
	pend   []pendingWrite

	split   int  // the split target width (Shards+AddShards)
	target  int  // width the in-flight/next migration drives toward
	merge   bool // queue a second migration back to the seed width
	running bool // a Reshard call is in flight on svc
	migErr  chan error
	dead    bool
}

func runReshardSchedule(rep *ReshardChaosReport, cfg ReshardChaosConfig, idx uint64, variant Variant) {
	seed := rng.SeedAt(cfg.Seed, 2*idx+uint64(variant))
	rstore := wal.NewMemStore()
	rplan := newReshardKillPlan(rng.SeedAt(seed, 20), rstore, cfg, idx)
	var shardBudget atomic.Int64
	shardBudget.Store(int64(cfg.MaxShardKills))
	stores := &reshardShardStores{
		wals:  make(map[reshardStoreKey]*wal.MemStore),
		ckpts: make(map[reshardStoreKey]*MemCheckpointStore),
		plans: make(map[reshardStoreKey]*shardKillPlan),
	}
	st := &reshardChaosState{
		rep:    rep,
		cfg:    cfg,
		id:     fmt.Sprintf("schedule %d/%v", idx, variant),
		rplan:  rplan,
		stores: stores,
		oracle: make(map[uint64][]byte),
		split:  cfg.Shards + cfg.AddShards,
		target: cfg.Shards + cfg.AddShards,
		merge:  idx%2 == 1,
		migErr: make(chan error, 1),
	}
	// Span tuned so shard kills land anywhere across the schedule's
	// per-shard hook traffic (client ops + migration copies).
	span := uint64(cfg.Ops)*3/(2*uint64(st.split)) + 8
	st.scfg = ShardedServiceConfig{
		Shards: cfg.Shards,
		Service: ServiceConfig{
			Device: DeviceConfig{
				Blocks:    cfg.Blocks,
				BlockSize: cfg.BlockSize,
				QueueSize: 4,
				Seed:      rng.SeedAt(seed, 3),
				Variant:   variant,
				Integrity: idx%2 == 0,
			},
			QueueDepth:      8,
			CheckpointEvery: 8,
			MaxRecoveries:   50,
			BackoffBase:     time.Nanosecond,
			BackoffMax:      time.Nanosecond,
		},
		RouterWAL: rstore,
		// The harness heals deterministically (healDownShards below);
		// the background loop would race the oracle's resolution order.
		SelfHeal:    SelfHealConfig{Disable: true},
		reshardHook: rplan.hook,
		sleep:       func(time.Duration) {},
	}
	st.scfg.PerShard = stores.install(seed, &shardBudget, span)
	defer st.finish()
	if !st.build() {
		return
	}
	// Prefill half the space with acked writes: the migration must carry
	// real data, and the untouched half pins zero-block routing.
	wl := rng.New(rng.SeedAt(seed, 4))
	var counter uint64
	ctx := context.Background()
	for addr := uint64(0); addr < cfg.Blocks && !st.dead; addr += 2 {
		st.rep.Ops++
		counter++
		data := chaosPayload(cfg.BlockSize, seed, counter)
		p := pendingWrite{addr: addr, old: st.oracle[addr], new: data}
		if st.settle(st.svc.Write(ctx, addr, data), []pendingWrite{p}, "prefill write") {
			st.oracle[addr] = data
			st.rep.Acked++
		}
	}
	if st.dead {
		return
	}
	st.startMig()
	st.drive(wl, seed, &counter)
	// Join the migration(s): a router kill mid-join rebuilds and
	// relaunches; the kill budget bounds the loop.
	for !st.dead {
		if st.running {
			st.migDone(<-st.migErr)
			continue
		}
		if st.merge && st.svc.Shards() == st.split {
			st.merge = false
			st.target = st.cfg.Shards
			st.startMig()
			continue
		}
		break
	}
	if st.dead {
		return
	}
	st.resolvePend()
	if st.dead {
		return
	}
	if got := st.svc.Shards(); got != st.target || st.svc.Migrating() {
		st.rep.violate("%s: fleet ended at %d shards (migrating=%v), want %d settled",
			st.id, got, st.svc.Migrating(), st.target)
		st.dead = true
		return
	}
	// Final sweep: read-your-writes over the whole global address space
	// at the post-migration width.
	for addr := uint64(0); addr < cfg.Blocks && !st.dead; addr++ {
		st.rep.Ops++
		st.checkRead(addr)
	}
	if st.dead {
		return
	}
	if err := st.svc.Close(); err != nil {
		st.rep.violate("%s: close: %v", st.id, err)
		return
	}
	for i := 0; i < st.svc.Shards(); i++ {
		if err := st.svc.shard(i).dev.Scrub(); err != nil {
			st.rep.violate("%s: shard %d scrub after close: %v", st.id, i, err)
		}
	}
}

// build stands the fleet up over the schedule's stores, retrying
// through crash-injected cold starts (kill budgets bound the loop).
func (st *reshardChaosState) build() bool {
	for {
		svc, err := NewShardedService(st.scfg)
		if err == nil {
			st.svc = svc
			return true
		}
		if !errors.Is(err, errKilled) {
			st.rep.violate("%s: open fleet: %v", st.id, err)
			st.dead = true
			return false
		}
	}
}

// startMig launches Reshard toward st.target on the migrator goroutine.
func (st *reshardChaosState) startMig() {
	st.running = true
	go func(svc *ShardedService, target, chunk int) {
		st.migErr <- svc.Reshard(context.Background(), ReshardConfig{NewShards: target, ChunkBlocks: chunk})
	}(st.svc, st.target, st.cfg.ChunkBlocks)
}

// migDone classifies a finished Reshard call.
func (st *reshardChaosState) migDone(err error) {
	st.running = false
	switch {
	case err == nil:
	case errors.Is(err, errKilled):
		st.routerRebuild()
	default:
		st.rep.violate("%s: reshard failed with unexpected error: %v", st.id, err)
		st.dead = true
	}
}

// joinMig receives the migrator's exit after a client op saw the router
// die; bare errKilled at admission implies a Reshard call is unwinding.
func (st *reshardChaosState) joinMig() {
	if !st.running {
		st.rep.violate("%s: router killed with no migration running", st.id)
		st.dead = true
		return
	}
	st.migDone(<-st.migErr)
}

// routerRebuild is the whole-process-death recovery: fold the dead
// instance's migration counters, close it, rebuild over the surviving
// stores (the torn router journal replays into the exact dual-routing
// state), and relaunch the migration if the journal says one is open or
// the fleet is not yet at the target width.
func (st *reshardChaosState) routerRebuild() {
	st.foldMig()
	st.svc.Close() // errors are moot: acked writes are synced by contract
	if !st.build() {
		return
	}
	st.rep.Rebuilds++
	if st.svc.Migrating() || st.svc.Shards() != st.target {
		st.startMig()
	}
}

// foldMig folds one fleet instance's migration counters into the report
// (called exactly once per instance: at rebuild or schedule end).
func (st *reshardChaosState) foldMig() {
	m := st.svc.Stats().Migration
	st.rep.Migrations += m.Completed
	st.rep.BlocksMoved += m.BlocksMoved
	st.rep.Chunks += m.Chunks
	st.rep.Resumes += m.Resumes
}

// finish settles the schedule's accounting: stop a still-running
// migrator (violation paths), fold the final instance and every kill
// plan.
func (st *reshardChaosState) finish() {
	if st.running && st.svc != nil {
		st.svc.Close()
		<-st.migErr
		st.running = false
	}
	if st.svc != nil {
		st.foldMig()
	}
	st.rep.RouterKills += st.rplan.kills
	for pt, n := range st.rplan.hits {
		st.rep.PhaseHits[pt] += n
	}
	st.stores.mu.Lock()
	for _, p := range st.stores.plans {
		st.rep.ShardKills += p.kills
	}
	st.stores.mu.Unlock()
}

// drive runs the client workload concurrently with the migration.
func (st *reshardChaosState) drive(wl *rng.Source, seed uint64, counter *uint64) {
	ctx := context.Background()
	for op := 0; op < st.cfg.Ops && !st.dead; op++ {
		if st.running {
			select {
			case err := <-st.migErr:
				st.migDone(err)
			default:
			}
		} else if st.merge && st.svc.Shards() == st.split {
			// First migration settled mid-drive: merge back under the
			// remaining traffic.
			st.merge = false
			st.target = st.cfg.Shards
			st.startMig()
		}
		if st.dead {
			return
		}
		st.rep.Ops++
		migOpen := st.svc.Migrating()
		switch roll := wl.Float64(); {
		case roll < 0.45: // write
			addr := wl.Uint64n(st.cfg.Blocks)
			*counter++
			data := chaosPayload(st.cfg.BlockSize, seed, *counter)
			p := pendingWrite{addr: addr, old: st.oracle[addr], new: data}
			if st.settle(st.svc.Write(ctx, addr, data), []pendingWrite{p}, "write") {
				st.oracle[addr] = data
				st.rep.Acked++
				if migOpen {
					st.rep.MigWrites++
				}
			}
		case roll < 0.65: // cross-shard batch, admitted under one epoch
			n := 2 + int(wl.Uint64n(4))
			ops := make([]BatchOp, 0, n)
			var pend []pendingWrite
			used := make(map[uint64]bool)
			for len(ops) < n {
				addr := wl.Uint64n(st.cfg.Blocks)
				if used[addr] {
					continue
				}
				used[addr] = true
				if wl.Float64() < 0.6 {
					*counter++
					data := chaosPayload(st.cfg.BlockSize, seed, *counter)
					ops = append(ops, BatchOp{Addr: addr, Write: true, Data: data})
					pend = append(pend, pendingWrite{addr: addr, old: st.oracle[addr], new: data})
				} else {
					ops = append(ops, BatchOp{Addr: addr})
				}
			}
			out, err := st.svc.Batch(ctx, ops)
			// Commits per shard: on failure every write settles in-flight.
			if !st.settle(err, pend, "batch") {
				continue
			}
			for i, o := range ops {
				if o.Write {
					st.oracle[o.Addr] = o.Data
					st.rep.Acked++
					if migOpen {
						st.rep.MigWrites++
					}
				} else {
					st.compareRead(o.Addr, out[i])
					if migOpen {
						st.rep.MigReads++
					}
				}
			}
		default: // read
			addr := wl.Uint64n(st.cfg.Blocks)
			got, ok := st.readBack(addr)
			if ok {
				st.compareRead(addr, got)
				if migOpen {
					st.rep.MigReads++
				}
			}
		}
	}
}

// settle classifies an operation's error: nil means acknowledged;
// ErrShardDown means a shard died under the op (heal it, resolve the
// in-flight writes); bare errKilled means the router died at a reshard
// point (rebuild the fleet, resume the migration, resolve). Reports
// whether the op was acknowledged.
func (st *reshardChaosState) settle(err error, pend []pendingWrite, what string) bool {
	switch {
	case err == nil:
		return true
	case errors.Is(err, ErrShardDown):
		st.pend = append(st.pend, pend...)
		st.healShards()
	case errors.Is(err, errKilled):
		st.pend = append(st.pend, pend...)
		st.joinMig()
	default:
		st.rep.violate("%s: %s failed with unexpected error: %v", st.id, what, err)
		st.dead = true
		return false
	}
	st.resolvePend()
	return false
}

// healShards cold-starts every down shard across both generations
// (synchronous harness stand-in for the self-heal loop); restarts that
// are themselves crash-injected retry, bounded by the kill budget.
func (st *reshardChaosState) healShards() {
	for !st.dead && st.svc.Stats().Down > 0 {
		if _, err := st.svc.healDownShards(); err != nil {
			st.rep.violate("%s: heal down shards: %v", st.id, err)
			st.dead = true
		}
	}
}

// resolvePend settles every in-flight write by read-back: new value
// (durable — promote the oracle) or old value (torn away pre-ack),
// anything else a silent corruption.
func (st *reshardChaosState) resolvePend() {
	for len(st.pend) > 0 && !st.dead {
		p := st.pend[0]
		got, ok := st.readBack(p.addr)
		if !ok {
			return
		}
		old := p.old
		if old == nil {
			old = make([]byte, st.cfg.BlockSize)
		}
		switch {
		case bytes.Equal(got, p.new):
			st.oracle[p.addr] = p.new
		case bytes.Equal(got, old):
			// Torn away pre-ack: legitimate for an unacknowledged write.
		default:
			st.rep.SilentCorruptions++
			st.rep.violate("%s: in-flight write at addr %d resolved to neither old nor new value", st.id, p.addr)
		}
		st.pend = st.pend[1:]
	}
}

// readBack reads addr, healing shard deaths and rebuilding through
// router deaths. ok=false means the schedule died.
func (st *reshardChaosState) readBack(addr uint64) ([]byte, bool) {
	ctx := context.Background()
	for !st.dead {
		got, err := st.svc.Read(ctx, addr)
		switch {
		case err == nil:
			return got, true
		case errors.Is(err, ErrShardDown):
			st.healShards()
		case errors.Is(err, errKilled):
			st.joinMig()
		default:
			st.rep.violate("%s: read %d failed with unexpected error: %v", st.id, addr, err)
			st.dead = true
		}
	}
	return nil, false
}

// checkRead reads addr and holds the result to the oracle, settling any
// in-flight writes the healing left behind.
func (st *reshardChaosState) checkRead(addr uint64) {
	got, ok := st.readBack(addr)
	if ok {
		st.compareRead(addr, got)
	}
	if len(st.pend) > 0 && !st.dead {
		st.resolvePend()
	}
}

// compareRead holds a successful read to the oracle.
func (st *reshardChaosState) compareRead(addr uint64, got []byte) {
	want, acked := st.oracle[addr]
	if want == nil {
		want = make([]byte, st.cfg.BlockSize)
	}
	if !bytes.Equal(got, want) {
		st.rep.SilentCorruptions++
		if acked {
			st.rep.LostAcks++
			st.rep.violate("%s: acknowledged write at addr %d lost across migration", st.id, addr)
		} else {
			st.rep.violate("%s: read at addr %d returned wrong data", st.id, addr)
		}
	}
}
