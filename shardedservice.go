package forkoram

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"forkoram/internal/rng"
	"forkoram/internal/wal"
)

// ErrShardDown marks operations refused because they route to a shard
// whose supervisor has exited (crash-injected death in the chaos
// harness, or a fail-stop that was never restarted). Sibling shards
// keep serving their slices of the address space; RestartShard — or the
// router's self-heal loop, which is on by default — brings the dead
// shard back from its durable stores, so ErrShardDown is a transient
// condition, not a terminal one.
var ErrShardDown = errors.New("forkoram: shard down (supervisor exited)")

// ShardedServiceConfig configures a ShardedService: S independent
// supervised Service stacks behind an address-partitioning router.
type ShardedServiceConfig struct {
	// Shards is the number of partitions (default 1). Must not exceed
	// Service.Device.Blocks — every shard owns at least one block. Only
	// consulted when RouterWAL is empty: once the router journal is
	// anchored, the journaled routing policy is authoritative, so a
	// fleet that resharded online reopens at its journaled width no
	// matter what Shards says.
	Shards int
	// Service is the per-shard template. Device.Blocks sizes the GLOBAL
	// address space; the router splits it into per-shard devices of
	// ~Blocks/Shards blocks each. Device.Seed derives a distinct label
	// stream per shard; WAL and Checkpoints MUST be nil in the template
	// (each shard needs its own stores — install them via PerShard).
	Service ServiceConfig
	// PerShard, when set, customizes one shard's config after the router
	// has derived it (blocks, seed) and before the shard Service is
	// built: install per-shard WAL/checkpoint stores, an Observer, a
	// fault schedule. The config is the shard's own copy; mutate freely.
	// The policy identifies which shard generation is being built —
	// store keys must be derived from (policy.Version, shard) so a
	// fleet rebuilt mid-migration finds both generations' stores.
	PerShard func(policy RoutingPolicy, shard int, cfg *ServiceConfig)
	// RouterWAL is the router's own journal store, holding routing-
	// policy transitions (anchor, reshard begin/advance/cutover/final)
	// — never block data. Defaults to a fresh in-memory store. Give the
	// router a durable store to make online reshards crash-recoverable:
	// a rebuild replays it and resumes dual routing at the exact
	// journaled watermark.
	RouterWAL WALStore
	// SelfHeal tunes the background loop that restarts Down shards.
	SelfHeal SelfHealConfig
	// reshardHook, when set, is consulted at each ReshardCrashPoint of
	// an online migration; returning true kills the router (chaos
	// harness only).
	reshardHook func(ReshardCrashPoint) bool
	// sleep replaces time.Sleep for the router's own waits (self-heal
	// cadence, migrator retry backoff). Tests hook it.
	sleep func(time.Duration)
}

// Validate checks the sharded configuration.
func (c ShardedServiceConfig) Validate() error {
	if c.Shards < 0 {
		return fmt.Errorf("forkoram: Shards must be >= 0 (got %d; 0 selects the single-shard default)", c.Shards)
	}
	s := c.Shards
	if s == 0 {
		s = 1
	}
	if uint64(s) > c.Service.Device.Blocks {
		return fmt.Errorf("forkoram: %d shards over %d blocks (every shard needs at least one block)",
			s, c.Service.Device.Blocks)
	}
	if c.Service.WAL != nil || c.Service.Checkpoints != nil {
		return fmt.Errorf("forkoram: template WAL/Checkpoints must be nil (per-shard stores go through PerShard)")
	}
	return c.SelfHeal.validate()
}

// ShardStats is one shard's slice of a ShardedStats breakdown.
type ShardStats struct {
	// Shard is the partition index; Blocks the number of global
	// addresses it owns under its set's policy.
	Shard  int
	Blocks uint64
	// Stats is the shard Service's own counters, State included.
	Stats ServiceStats
}

// ShardedStats aggregates a ShardedService: summed counters, a
// router-level state summary, and the per-shard breakdown.
type ShardedStats struct {
	// Shards is the width of the policy currently in force (the
	// recipient width after a cutover).
	Shards int
	// Total sums every serving shard's counters — recipient shards of
	// an open migration included. Total.State is the router state:
	// Healthy only when every serving shard is healthy, Closed/Failed
	// only when every shard is, Degraded otherwise — a single impaired
	// shard degrades only its slice of the address space, and the
	// summary says so without hiding it.
	Total ServiceStats
	// Healthy/Degraded/Failed/Closed/Down count serving shards per
	// state (Down covers supervisors that exited outside an orderly
	// Close), across both generations while a migration is open.
	Healthy, Degraded, Failed, Closed, Down int
	// PerShard is the current set's breakdown, indexed by shard.
	PerShard []ShardStats
	// Incoming is the recipient set's breakdown while a migration epoch
	// is open, nil otherwise.
	Incoming []ShardStats
	// Migration reports online-reshard progress; Migration.Epoch is the
	// routing-policy version in force even when no migration is open.
	Migration MigrationStats
	// HealRestarts/HealFailures count shard restarts performed (and
	// restart attempts failed) by the self-heal loop.
	HealRestarts, HealFailures uint64
}

// shardSet is one generation of supervised shards: the policy that
// routes into it, the running Services, their materialized configs
// (for cold restarts), and a per-shard restart lock serializing
// concurrent RestartShard calls on the same shard.
type shardSet struct {
	policy    RoutingPolicy
	svcs      []*Service // guarded by the router's mu
	cfgs      []ServiceConfig
	restartMu []sync.Mutex
}

// ShardedService is a goroutine-safe front door over independent
// Service stacks (Device + fork scheduler + WAL + checkpoints +
// supervisor), partitioning the logical address space under a versioned
// RoutingPolicy: global address a lives on shard a % S, as local
// address a / S.
//
// Routing invariant: the addr→shard map is a fixed public function of
// the address and the journaled policy epoch — never of the data, the
// access history, or any secret — so an adversary watching which shard
// serves a request learns exactly the residue class of the address
// (and, during a migration, on which side of the public watermark it
// falls), which the deployment declares public, and nothing else:
// within a shard the access sequence is a full Fork Path trace over
// that shard's own tree, carrying the usual guarantees. Migration
// traffic itself rides ordinary oblivious accesses on both trees.
//
// Failure isolation: each shard keeps its own group-commit pipeline,
// journal, checkpoint cadence, recovery loop, and fault epoch. A
// poisoned or recovering shard degrades only its slice of the address
// space; siblings keep serving theirs. A shard whose supervisor exited
// entirely answers ErrShardDown until RestartShard (or the self-heal
// loop) cold-starts it from its durable stores.
//
// Durability: acknowledgement is per shard and means exactly what a
// single Service's ack means — the write is durable in THAT shard's
// journal and applied to THAT shard's device. A cross-shard Batch is
// validated all-or-nothing before any shard is touched, but commits
// per shard: on a mid-batch shard failure the error reports the batch
// as failed while writes on surviving shards may already be durably
// applied (resolve by re-reading, exactly like any in-flight write).
//
// Online resharding: Reshard opens a migration epoch that copies every
// block from the donor set to a recipient set while both keep serving —
// see reshard.go for the protocol and its crash matrix.
type ShardedService struct {
	blocks    uint64
	blockSize int
	cfg       ShardedServiceConfig
	rlog      *wal.Log

	mu   sync.Mutex
	cond *sync.Cond // barrier waiters + in-flight drain, signalled under mu
	// cur is the serving generation; next is the recipient generation
	// while a migration epoch is open. Addresses below watermark route
	// under next's policy, the rest under cur's.
	cur       *shardSet
	next      *shardSet
	watermark uint64
	// barrier, while true, holds NEW writes to [barLo, barHi) so the
	// migrator can copy that chunk without a racing writer landing a
	// post-copy update on the donor only. Reads never wait: the donor
	// copy stays authoritative until the watermark publishes.
	barrier      bool
	barLo, barHi uint64
	// gen flips parity each time the migrator needs the previous
	// admission generation drained; active counts in-flight operations
	// per parity so the drain is exact, not a sleep.
	gen    uint64
	active [2]int64

	closed       bool
	rkilled      bool // router killed at a ReshardCrashPoint (chaos)
	migRunning   bool // one Reshard at a time
	pendingFinal bool // cutover durable, donor retirement not yet journaled
	// donors remembers the retired-but-not-yet-finalized generation (and
	// its policy) while pendingFinal, so a failed retirement can retry.
	donors      *shardSet
	donorPolicy RoutingPolicy
	mig         MigrationStats

	healRestarts, healFailures uint64
	healStop                   chan struct{}
	healDone                   chan struct{}
}

// NewShardedService builds the supervised fleet behind the router. Each
// shard's config is derived from the template: Device.Blocks becomes
// the shard's share of the global space, Device.Seed is re-derived per
// (policy version, shard) — distinct label streams — and nil
// WAL/Checkpoints default to fresh in-memory stores that the router
// retains for restarts.
//
// The router journal (RouterWAL) is replayed first. An empty journal is
// anchored with the config-derived policy {Version: 1, Shards}; a
// journal left by a crashed migration rebuilds BOTH generations and
// resumes dual routing at the journaled watermark (call Reshard to
// continue copying); a journal whose cutover committed but whose donor
// retirement didn't finishes the retirement here.
func NewShardedService(cfg ShardedServiceConfig) (*ShardedService, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Service.Device.Validate(); err != nil {
		return nil, err
	}
	s := cfg.Shards
	if s == 0 {
		s = 1
	}
	r := &ShardedService{
		blocks:    cfg.Service.Device.Blocks,
		blockSize: cfg.Service.Device.withDefaults().BlockSize,
		cfg:       cfg,
	}
	r.cfg.SelfHeal = r.cfg.SelfHeal.withDefaults()
	if r.cfg.sleep == nil {
		r.cfg.sleep = time.Sleep
	}
	r.cond = sync.NewCond(&r.mu)
	store := cfg.RouterWAL
	if store == nil {
		store = NewWALMemStore()
	}
	r.cfg.RouterWAL = store
	rlog, recs, err := wal.Open(store)
	if err != nil {
		return nil, fmt.Errorf("forkoram: router journal: %w", err)
	}
	r.rlog = rlog
	st, err := replayRouterJournal(recs, RoutingPolicy{Version: 1, Shards: s})
	if err != nil {
		return nil, err
	}
	if !st.anchored {
		if err := r.appendRouter(wal.OpPolicy, 0, mustEncodePolicy(st.cur)); err != nil {
			return nil, err
		}
	}
	if err := r.checkPolicy(st.cur); err != nil {
		return nil, err
	}
	cur, err := r.buildSet(st.cur)
	if err != nil {
		return nil, err
	}
	r.cur = cur
	r.mig.Epoch = st.cur.Version
	if st.next != nil {
		if err := r.checkPolicy(*st.next); err != nil {
			cur.close()
			return nil, err
		}
		next, err := r.buildSet(*st.next)
		if err != nil {
			cur.close()
			return nil, err
		}
		r.next = next
		r.watermark = st.watermark
		r.mig.Active = true
		r.mig.FromShards = st.cur.Shards
		r.mig.ToShards = st.next.Shards
		r.mig.Watermark = st.watermark
	}
	if st.pendingFinal {
		r.pendingFinal = true
		if err := r.retireDonors(nil, st.donor); err != nil {
			cur.close()
			return nil, err
		}
	}
	r.startSelfHeal()
	return r, nil
}

// mustEncodePolicy is for policies the router built itself — encoding
// them cannot fail.
func mustEncodePolicy(p RoutingPolicy) []byte {
	b, err := p.MarshalBinary()
	if err != nil {
		panic(err)
	}
	return b
}

// appendRouter journals one routing record durably (append + sync).
func (r *ShardedService) appendRouter(op uint8, addr uint64, payload []byte) error {
	if _, err := r.rlog.Append(op, addr, payload); err != nil {
		return fmt.Errorf("forkoram: router journal: %w", err)
	}
	if err := r.rlog.Sync(); err != nil {
		return fmt.Errorf("forkoram: router journal: %w", err)
	}
	return nil
}

// checkPolicy validates a journaled policy against the global space.
func (r *ShardedService) checkPolicy(p RoutingPolicy) error {
	if uint64(p.Shards) > r.blocks {
		return fmt.Errorf("forkoram: policy v%d: %d shards over %d blocks (every shard needs at least one block)",
			p.Version, p.Shards, r.blocks)
	}
	return nil
}

// shardConfig derives one shard's ServiceConfig under policy p.
func (r *ShardedService) shardConfig(p RoutingPolicy, i int) ServiceConfig {
	sc := r.cfg.Service
	sc.Device.Blocks = p.ShardBlocks(r.blocks, i)
	switch {
	case p.Version == 1 && p.Shards > 1:
		// Distinct per-shard label/engine randomness, deterministically
		// derived so a fixed template seed still reproduces the fleet.
		// This generation-1 derivation predates resharding and is kept
		// bit-stable so old fleets reopen from their existing stores.
		sc.Device.Seed = rng.SeedAt(sc.Device.Seed, 3000+uint64(i))
		if sc.Device.Faults != nil {
			fc := *sc.Device.Faults
			fc.Seed = rng.SeedAt(fc.Seed, 4000+uint64(i))
			sc.Device.Faults = &fc
		}
	case p.Version > 1:
		sc.Device.Seed = rng.SeedAt(rng.SeedAt(sc.Device.Seed, 5000+p.Version), uint64(i))
		if sc.Device.Faults != nil {
			fc := *sc.Device.Faults
			fc.Seed = rng.SeedAt(rng.SeedAt(fc.Seed, 6000+p.Version), uint64(i))
			sc.Device.Faults = &fc
		}
	}
	if r.cfg.PerShard != nil {
		r.cfg.PerShard(p, i, &sc)
	}
	// Materialize the stores now: withDefaults inside NewService would
	// otherwise create them anonymously and a restart could never find
	// the shard's surviving journal again.
	if sc.WAL == nil {
		sc.WAL = NewWALMemStore()
	}
	if sc.Checkpoints == nil {
		sc.Checkpoints = NewMemCheckpointStore()
	}
	return sc
}

// buildSet constructs the full shard generation for policy p.
func (r *ShardedService) buildSet(p RoutingPolicy) (*shardSet, error) {
	set := &shardSet{
		policy:    p,
		svcs:      make([]*Service, p.Shards),
		cfgs:      make([]ServiceConfig, p.Shards),
		restartMu: make([]sync.Mutex, p.Shards),
	}
	for i := 0; i < p.Shards; i++ {
		sc := r.shardConfig(p, i)
		set.cfgs[i] = sc
		svc, err := NewService(sc)
		if err != nil {
			for j := 0; j < i; j++ {
				set.svcs[j].Close()
			}
			return nil, fmt.Errorf("forkoram: shard %d (policy v%d): %w", i, p.Version, err)
		}
		set.svcs[i] = svc
	}
	return set, nil
}

// close shuts every shard of the set down concurrently.
func (s *shardSet) close() error {
	var wg sync.WaitGroup
	errs := make([]error, len(s.svcs))
	for i, svc := range s.svcs {
		if svc == nil {
			continue
		}
		wg.Add(1)
		go func(i int, svc *Service) {
			defer wg.Done()
			if err := svc.Close(); err != nil {
				errs[i] = fmt.Errorf("forkoram: shard %d (policy v%d): %w", i, s.policy.Version, err)
			}
		}(i, svc)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// shardBlocks returns how many global addresses land on shard i under
// addr % shards striping of blocks addresses.
func shardBlocks(blocks uint64, shards, i int) uint64 {
	return (blocks + uint64(shards) - 1 - uint64(i)) / uint64(shards)
}

// Shards returns the width of the routing policy currently in force.
func (r *ShardedService) Shards() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur.policy.Shards
}

// Blocks returns the global address-space size.
func (r *ShardedService) Blocks() uint64 { return r.blocks }

// Policy returns the routing policy currently in force (the donor
// policy while a migration is open — the recipient's only after
// cutover).
func (r *ShardedService) Policy() RoutingPolicy {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur.policy
}

// Migrating reports whether a migration epoch is open (dual routing in
// force).
func (r *ShardedService) Migrating() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next != nil
}

// ShardOf returns the shard serving global address addr right now —
// the routing function, exported because it is public information by
// design. During a migration the answer names a shard of whichever
// generation the watermark assigns the address to.
func (r *ShardedService) ShardOf(addr uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next != nil && addr < r.watermark {
		return r.next.policy.ShardOf(addr)
	}
	return r.cur.policy.ShardOf(addr)
}

// routeView is one operation's admission snapshot: the generations and
// watermark it routes under, plus the parity slot its in-flight count
// landed in. Operations admitted before a watermark publish keep their
// snapshot — the donor copy they may touch stays authoritative until
// they exit, which the migrator's drain guarantees.
type routeView struct {
	cur, next *shardSet
	watermark uint64
	par       int
}

// lookup routes a global address under the view.
func (v routeView) lookup(addr uint64) (*shardSet, int) {
	if v.next != nil && addr < v.watermark {
		return v.next, v.next.policy.ShardOf(addr)
	}
	return v.cur, v.cur.policy.ShardOf(addr)
}

// admit snapshots the routing state and registers the caller in-flight.
// Caller holds mu.
func (r *ShardedService) admit() routeView {
	v := routeView{cur: r.cur, next: r.next, watermark: r.watermark, par: int(r.gen & 1)}
	r.active[v.par]++
	return v
}

// enterOp admits a single-address operation, waiting out a migration
// barrier only when the op writes inside the chunk being copied.
func (r *ShardedService) enterOp(addr uint64, write bool) (routeView, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.closed {
			return routeView{}, ErrClosed
		}
		if r.rkilled {
			return routeView{}, errKilled
		}
		if write && r.barrier && addr >= r.barLo && addr < r.barHi {
			r.cond.Wait()
			continue
		}
		return r.admit(), nil
	}
}

// enterBatch admits a batch, waiting only when one of its WRITE ops
// lands in the barred chunk. The whole batch is admitted under one
// routing snapshot, so its all-or-nothing validation and its fan-out
// agree on a single epoch.
func (r *ShardedService) enterBatch(ops []BatchOp) (routeView, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.closed {
			return routeView{}, ErrClosed
		}
		if r.rkilled {
			return routeView{}, errKilled
		}
		if r.barrier && batchHitsBarrier(ops, r.barLo, r.barHi) {
			r.cond.Wait()
			continue
		}
		return r.admit(), nil
	}
}

// batchHitsBarrier reports whether any write op lands in [lo, hi).
func batchHitsBarrier(ops []BatchOp, lo, hi uint64) bool {
	for _, op := range ops {
		if op.Write && op.Addr >= lo && op.Addr < hi {
			return true
		}
	}
	return false
}

// exitOp retires an admission; the last exiter of a drained parity
// wakes the migrator.
func (r *ShardedService) exitOp(v routeView) {
	r.mu.Lock()
	r.active[v.par]--
	if r.active[v.par] == 0 {
		r.cond.Broadcast()
	}
	r.mu.Unlock()
}

// svcAt reads the current incarnation of one shard (restarts swap the
// slot under mu).
func (r *ShardedService) svcAt(set *shardSet, sh int) *Service {
	r.mu.Lock()
	svc := set.svcs[sh]
	r.mu.Unlock()
	return svc
}

// shard returns the current Service of shard i of the serving set.
func (r *ShardedService) shard(i int) *Service {
	r.mu.Lock()
	svc := r.cur.svcs[i]
	r.mu.Unlock()
	return svc
}

// checkAddr validates a global address at the router, so out-of-range
// requests fail identically regardless of which shard they would hash
// to (and before touching any shard).
func (r *ShardedService) checkAddr(addr uint64) error {
	if addr >= r.blocks {
		return fmt.Errorf("forkoram: address %d out of range (blocks=%d)", addr, r.blocks)
	}
	return nil
}

// Read returns the contents of the global block at addr, served by its
// shard. Safe for concurrent use; concurrency across shards is real
// parallelism (independent supervisors, devices, and journals). Reads
// never wait on a migration barrier.
func (r *ShardedService) Read(ctx context.Context, addr uint64) ([]byte, error) {
	if err := r.checkAddr(addr); err != nil {
		return nil, err
	}
	v, err := r.enterOp(addr, false)
	if err != nil {
		return nil, err
	}
	defer r.exitOp(v)
	set, sh := v.lookup(addr)
	out, err := r.svcAt(set, sh).Read(ctx, set.policy.Local(addr))
	return out, passShardErr(set, sh, err)
}

// Write durably replaces the global block at addr with data (exactly
// BlockSize bytes), with the single-Service ack contract applied to the
// owning shard: nil means journaled durably and applied there. A write
// into the chunk a migrator is actively copying waits for that chunk's
// watermark to publish (bounded by one chunk copy), then lands on the
// recipient shard.
func (r *ShardedService) Write(ctx context.Context, addr uint64, data []byte) error {
	if err := r.checkAddr(addr); err != nil {
		return err
	}
	if len(data) != r.blockSize {
		return fmt.Errorf("forkoram: payload %d bytes, want %d", len(data), r.blockSize)
	}
	v, err := r.enterOp(addr, true)
	if err != nil {
		return err
	}
	defer r.exitOp(v)
	set, sh := v.lookup(addr)
	return passShardErr(set, sh, r.svcAt(set, sh).Write(ctx, set.policy.Local(addr), data))
}

// passShardErr annotates a shard-death error with the shard that served
// the op; other errors pass through untouched.
func passShardErr(set *shardSet, sh int, err error) error {
	if err != nil && errors.Is(err, errKilled) {
		return fmt.Errorf("forkoram: shard %d (policy v%d): %w (%w)", sh, set.policy.Version, ErrShardDown, err)
	}
	return err
}

// wrapShard annotates a shard-local error with its shard index.
func wrapShard(set *shardSet, sh int, err error) error {
	if errors.Is(err, errKilled) {
		return fmt.Errorf("forkoram: shard %d (policy v%d): %w (%w)", sh, set.policy.Version, ErrShardDown, err)
	}
	return fmt.Errorf("forkoram: shard %d (policy v%d): %w", sh, set.policy.Version, err)
}

// shardSpan is one shard's slice of a cross-shard batch: the sub-ops
// routed to it and, per sub-op, its position in the caller's op list.
type shardSpan struct {
	set *shardSet
	sh  int
	ops []BatchOp
	pos []int
}

// setShard keys a batch span by (generation, shard).
type setShard struct {
	set *shardSet
	sh  int
}

// Batch executes ops across shards: validated all-or-nothing at the
// router (no shard is touched if any op is malformed), admitted under
// ONE routing snapshot — the epoch that admitted the batch routes every
// op, even if a watermark publishes mid-flight — split by the routing
// function with per-shard order preserved, fanned out to every involved
// shard concurrently, and fanned back positionally. Each shard's
// sub-batch keeps the full single-Service batch semantics (group
// commit, Fork merge window, per-shard durability of writes).
//
// A nil error means every shard acknowledged its sub-batch. On error,
// sub-batches on shards that did not fail may have been durably applied
// — the per-shard ack contract; re-read to resolve, as with any write
// left in flight by a failure.
func (r *ShardedService) Batch(ctx context.Context, ops []BatchOp) ([][]byte, error) {
	for i, op := range ops {
		if err := r.checkAddr(op.Addr); err != nil {
			return nil, fmt.Errorf("forkoram: batch op %d: %w", i, err)
		}
		if op.Write && len(op.Data) != r.blockSize {
			return nil, fmt.Errorf("forkoram: batch op %d: payload %d bytes, want %d",
				i, len(op.Data), r.blockSize)
		}
	}
	if len(ops) == 0 {
		return [][]byte{}, nil
	}
	v, err := r.enterBatch(ops)
	if err != nil {
		return nil, err
	}
	defer r.exitOp(v)
	spans := make(map[setShard]*shardSpan)
	var order []*shardSpan
	for i, op := range ops {
		set, sh := v.lookup(op.Addr)
		key := setShard{set, sh}
		sp := spans[key]
		if sp == nil {
			sp = &shardSpan{set: set, sh: sh}
			spans[key] = sp
			order = append(order, sp)
		}
		local := op
		local.Addr = set.policy.Local(op.Addr)
		sp.ops = append(sp.ops, local)
		sp.pos = append(sp.pos, i)
	}
	results := make([][]byte, len(ops))
	if len(order) == 1 {
		// Single-shard batch: serve on the caller's goroutine.
		sp := order[0]
		out, err := r.svcAt(sp.set, sp.sh).Batch(ctx, sp.ops)
		if err != nil {
			return nil, wrapShard(sp.set, sp.sh, err)
		}
		for j, p := range sp.pos {
			results[p] = out[j]
		}
		return results, nil
	}
	var wg sync.WaitGroup
	errs := make([]error, len(order))
	for k, sp := range order {
		wg.Add(1)
		go func(k int, sp *shardSpan) {
			defer wg.Done()
			out, err := r.svcAt(sp.set, sp.sh).Batch(ctx, sp.ops)
			if err != nil {
				errs[k] = wrapShard(sp.set, sp.sh, err)
				return
			}
			for j, p := range sp.pos {
				results[p] = out[j]
			}
		}(k, sp)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// servingSets snapshots the generations currently serving traffic.
func (r *ShardedService) servingSets() []*shardSet {
	r.mu.Lock()
	defer r.mu.Unlock()
	sets := []*shardSet{r.cur}
	if r.next != nil {
		sets = append(sets, r.next)
	}
	return sets
}

// Checkpoint forces a checkpoint on every serving shard (recipient
// generation included) concurrently, each quiescing and truncating its
// own journal. The first failure is returned; other shards' checkpoints
// still commit.
func (r *ShardedService) Checkpoint(ctx context.Context) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	for _, set := range r.servingSets() {
		for i := range set.svcs {
			wg.Add(1)
			go func(set *shardSet, i int) {
				defer wg.Done()
				if err := r.svcAt(set, i).Checkpoint(ctx); err != nil {
					mu.Lock()
					errs = append(errs, wrapShard(set, i, err))
					mu.Unlock()
				}
			}(set, i)
		}
	}
	wg.Wait()
	return errors.Join(errs...)
}

// RestartShard cold-starts shard i of the serving generation from its
// durable stores (journal + checkpoint), replacing the previous
// incarnation — the path back to full service after a shard
// fail-stopped or its supervisor died. The old incarnation is closed
// first (a no-op if it already exited); every acknowledged write on the
// shard survives, by the single-Service recovery contract. Safe to call
// concurrently with traffic (requests racing the swap land on one
// incarnation or the other) and concurrently with itself: a per-shard
// lock serializes restarts of the same shard.
func (r *ShardedService) RestartShard(i int) error {
	r.mu.Lock()
	set := r.cur
	r.mu.Unlock()
	if i < 0 || i >= set.policy.Shards {
		return fmt.Errorf("forkoram: shard %d out of range (shards=%d)", i, set.policy.Shards)
	}
	return r.restartIn(set, i)
}

// restartIn restarts one shard of one generation, serialized per shard.
func (r *ShardedService) restartIn(set *shardSet, i int) error {
	set.restartMu[i].Lock()
	defer set.restartMu[i].Unlock()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	old := set.svcs[i]
	r.mu.Unlock()
	old.Close()
	svc, err := NewService(set.cfgs[i])
	if err != nil {
		return fmt.Errorf("forkoram: shard %d restart: %w", i, err)
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		svc.Close()
		return ErrClosed
	}
	set.svcs[i] = svc
	r.mu.Unlock()
	return nil
}

// Close stops the self-heal loop, refuses further admissions, and shuts
// every serving shard down concurrently (drain, final checkpoint,
// supervisor shutdown), returning the joined per-shard errors. An
// in-flight Reshard aborts at its next step with ErrClosed; its journal
// state stays resumable by a rebuild.
func (r *ShardedService) Close() error {
	r.stopSelfHeal()
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		r.cond.Broadcast()
	}
	cur, next := r.cur, r.next
	r.mu.Unlock()
	var errs []error
	errs = append(errs, r.closeSet(cur))
	if next != nil {
		errs = append(errs, r.closeSet(next))
	}
	return errors.Join(errs...)
}

// closeSet shuts one generation down, healing shards whose close was
// crash-killed: a kill inside a shard's final checkpoint is a crash
// like any other, so the shard is cold-started from its durable stores
// and closed again — by the time Close returns, every shard either had
// an orderly shutdown or failed it for a reason kills don't explain.
// (Restarts after Close are refused, so the healing must happen here.)
func (r *ShardedService) closeSet(set *shardSet) error {
	for {
		err := set.close()
		if err == nil || !errors.Is(err, errKilled) {
			return err
		}
		for i, svc := range set.svcs {
			if svc == nil || svc.State() != stateKilled {
				continue
			}
			fresh, err := NewService(set.cfgs[i])
			if err != nil {
				if errors.Is(err, errKilled) {
					continue // cold start crash-injected too; next round
				}
				return fmt.Errorf("forkoram: shard %d (policy v%d): close heal: %w",
					i, set.policy.Version, err)
			}
			r.mu.Lock()
			set.svcs[i] = fresh
			r.mu.Unlock()
		}
	}
}

// State returns the router-level state summary (see ShardedStats.Total).
func (r *ShardedService) State() ServiceState {
	return r.Stats().Total.State
}

// Stats snapshots every serving shard and aggregates.
func (r *ShardedService) Stats() ShardedStats {
	r.mu.Lock()
	cur := r.cur
	curSvcs := append([]*Service(nil), r.cur.svcs...)
	var next *shardSet
	var nextSvcs []*Service
	if r.next != nil {
		next = r.next
		nextSvcs = append([]*Service(nil), r.next.svcs...)
	}
	mig := r.mig
	mig.Active = r.next != nil
	mig.Epoch = r.cur.policy.Version
	mig.Watermark = r.watermark
	hr, hf := r.healRestarts, r.healFailures
	r.mu.Unlock()

	st := ShardedStats{
		Shards:       cur.policy.Shards,
		PerShard:     make([]ShardStats, len(curSvcs)),
		Migration:    mig,
		HealRestarts: hr,
		HealFailures: hf,
	}
	serving := len(curSvcs) + len(nextSvcs)
	fold := func(dst []ShardStats, set *shardSet, svcs []*Service) {
		for i, svc := range svcs {
			ss := svc.Stats()
			dst[i] = ShardStats{Shard: i, Blocks: set.policy.ShardBlocks(r.blocks, i), Stats: ss}
			addStats(&st.Total, &ss)
			switch ss.State {
			case StateHealthy:
				st.Healthy++
			case StateDegraded:
				st.Degraded++
			case StateFailed:
				st.Failed++
			case StateClosed:
				st.Closed++
			default:
				st.Down++
			}
		}
	}
	fold(st.PerShard, cur, curSvcs)
	if next != nil {
		st.Incoming = make([]ShardStats, len(nextSvcs))
		fold(st.Incoming, next, nextSvcs)
	}
	switch {
	case st.Healthy == serving:
		st.Total.State = StateHealthy
	case st.Closed == serving:
		st.Total.State = StateClosed
	case st.Failed+st.Down == serving:
		st.Total.State = StateFailed
	default:
		st.Total.State = StateDegraded
	}
	return st
}

// addStats folds one shard's counters into an aggregate.
func addStats(dst, src *ServiceStats) {
	dst.Reads += src.Reads
	dst.Writes += src.Writes
	dst.Batches += src.Batches
	dst.Overloaded += src.Overloaded
	dst.Recoveries += src.Recoveries
	dst.FailedRecoveries += src.FailedRecoveries
	dst.ReplayedOps += src.ReplayedOps
	dst.Checkpoints += src.Checkpoints
	dst.WALRecords += src.WALRecords
	dst.WALSyncs += src.WALSyncs
	dst.Groups += src.Groups
	dst.GroupedOps += src.GroupedOps
	for i := range dst.GroupSizes {
		dst.GroupSizes[i] += src.GroupSizes[i]
	}
}
