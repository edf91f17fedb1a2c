package forkoram

import (
	"context"
	"errors"
	"fmt"
	"time"

	"forkoram/internal/wal"
)

// ErrReshardRunning marks a Reshard call that found another migration
// already being driven on the same router.
var ErrReshardRunning = errors.New("forkoram: a reshard is already running")

// ReshardCrashPoint names the moments of an online migration where the
// chaos harness may kill the router process. They are distinct from the
// per-shard CrashPoints in service.go: a router kill takes down the
// whole front door (every client op answers errKilled afterwards), and
// recovery is a full rebuild via NewShardedService over the surviving
// stores — which must land in the exact journaled routing state.
type ReshardCrashPoint int

const (
	// ReshardKillPolicyAppend: the OpReshardBegin record is appended but
	// its sync is racing the crash — the migration epoch may or may not
	// have durably opened.
	ReshardKillPolicyAppend ReshardCrashPoint = iota
	// ReshardKillMidStream: between two block copies of a chunk. Copies
	// are ordinary acked accesses; the journaled watermark has not
	// moved, so a rebuild re-copies the whole chunk.
	ReshardKillMidStream
	// ReshardKillAdvance: an OpReshardAdvance record is appended but its
	// sync is racing the crash — the watermark may or may not have
	// durably advanced. Crucially the watermark was NOT yet published to
	// clients, so either outcome routes every acked write correctly.
	ReshardKillAdvance
	// ReshardKillCutover: the OpReshardCutover record is appended but
	// its sync is racing the crash.
	ReshardKillCutover
	// ReshardKillFinalize: donor journals are truncated but the
	// OpReshardFinal record is not yet durable — the rebuild must
	// re-retire (idempotent) and journal the final record itself.
	ReshardKillFinalize

	numReshardPoints = int(ReshardKillFinalize) + 1
)

// String names the kill point.
func (p ReshardCrashPoint) String() string {
	switch p {
	case ReshardKillPolicyAppend:
		return "reshard-policy-append"
	case ReshardKillMidStream:
		return "reshard-mid-stream"
	case ReshardKillAdvance:
		return "reshard-watermark-advance"
	case ReshardKillCutover:
		return "reshard-cutover-commit"
	case ReshardKillFinalize:
		return "reshard-post-cutover-truncate"
	default:
		return fmt.Sprintf("reshard-point-%d", int(p))
	}
}

// ReshardConfig parameterizes one online migration.
type ReshardConfig struct {
	// NewShards is the recipient width (a split when larger, a merge
	// when smaller — the protocol copies every block either way). 0
	// resumes the migration journaled in the router WAL; a non-zero
	// value matching a journaled in-progress migration also resumes it.
	NewShards int
	// ChunkBlocks bounds how many addresses are copied per journaled
	// watermark advance (default 16). Smaller chunks mean shorter write
	// barriers and finer-grained crash recovery; larger chunks mean
	// fewer router-journal syncs.
	ChunkBlocks int
}

// migMaxRestarts bounds how many times the migrator will cold-start a
// dead shard while retrying one block copy before giving up (the
// migration stays journaled and resumable).
const migMaxRestarts = 64

// Reshard runs (or resumes) an online migration to cfg.NewShards,
// returning once the cutover and donor retirement are journaled. The
// fleet keeps serving throughout:
//
//  1. A recipient shard set is built and OpReshardBegin journaled; from
//     here the router dual-routes — addresses below the journaled
//     watermark under the recipient policy, the rest under the donor's.
//  2. For each chunk [w, w+c): new writes into the chunk are held at
//     admission (reads, and ops elsewhere, flow freely), in-flight
//     operations admitted before the hold are drained, and each block
//     is copied donor→recipient as ordinary acked oblivious accesses.
//     An OpReshardAdvance record is made durable BEFORE the watermark
//     is published and the hold lifted — so a crash can lose an
//     unpublished advance (the chunk is re-copied) but can never
//     publish routing a crash would forget.
//  3. At watermark == Blocks, OpReshardCutover commits the recipient
//     policy; the donor set is drained, closed, its journals truncated,
//     and OpReshardFinal journaled.
//
// A crash anywhere leaves the router journal describing the exact
// routing state; NewShardedService over the same stores rebuilds both
// generations and a fresh Reshard call resumes the copy. Shards that
// die mid-migration are cold-started by the migrator itself (bounded
// retries), so shard kills stall the stream rather than abort it.
func (r *ShardedService) Reshard(ctx context.Context, cfg ReshardConfig) error {
	chunk := cfg.ChunkBlocks
	if chunk <= 0 {
		chunk = 16
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	if r.rkilled {
		r.mu.Unlock()
		return errKilled
	}
	if r.migRunning {
		r.mu.Unlock()
		return ErrReshardRunning
	}
	r.migRunning = true
	defer func() {
		r.mu.Lock()
		r.migRunning = false
		r.mu.Unlock()
	}()
	resuming := r.next != nil
	donorPolicy := r.cur.policy
	if resuming {
		target := r.next.policy
		if cfg.NewShards != 0 && cfg.NewShards != target.Shards {
			r.mu.Unlock()
			return fmt.Errorf("forkoram: migration to %d shards already journaled (asked for %d)",
				target.Shards, cfg.NewShards)
		}
		r.mig.Resumes++
		r.mu.Unlock()
	} else if r.pendingFinal {
		// Nothing to copy — a committed cutover just owes retirement.
		// (NewShardedService normally settles this; reachable only if a
		// runtime retirement errored.)
		donors, dp := r.donors, r.donorPolicy
		r.mu.Unlock()
		return r.retireDonors(donors, dp)
	} else {
		r.mu.Unlock()
		if cfg.NewShards < 1 {
			return fmt.Errorf("forkoram: NewShards must be >= 1 (got %d)", cfg.NewShards)
		}
		if cfg.NewShards == donorPolicy.Shards {
			return fmt.Errorf("forkoram: fleet already has %d shards", cfg.NewShards)
		}
		target := RoutingPolicy{Version: donorPolicy.Version + 1, Shards: cfg.NewShards}
		if err := r.checkPolicy(target); err != nil {
			return err
		}
		if err := r.beginMigration(donorPolicy, target); err != nil {
			return err
		}
	}

	// Stream the copy, one journaled chunk at a time.
	for {
		r.mu.Lock()
		w := r.watermark
		donor, rcpt := r.cur, r.next
		r.mu.Unlock()
		if rcpt == nil || w >= r.blocks {
			break
		}
		hi := w + uint64(chunk)
		if hi > r.blocks {
			hi = r.blocks
		}
		if err := r.copyChunk(ctx, donor, rcpt, w, hi); err != nil {
			return err
		}
	}
	return r.cutover()
}

// beginMigration builds the recipient generation and durably opens the
// migration epoch.
func (r *ShardedService) beginMigration(from, to RoutingPolicy) error {
	set, err := r.buildSet(to)
	if err != nil {
		return err
	}
	payload, err := ReshardPlan{From: from, To: to}.MarshalBinary()
	if err != nil {
		set.close()
		return err
	}
	if _, err := r.rlog.Append(wal.OpReshardBegin, 0, payload); err != nil {
		set.close()
		return fmt.Errorf("forkoram: router journal: %w", err)
	}
	if r.rkill(ReshardKillPolicyAppend) {
		set.close()
		return errKilled
	}
	if err := r.rlog.Sync(); err != nil {
		set.close()
		return fmt.Errorf("forkoram: router journal: %w", err)
	}
	r.mu.Lock()
	if r.closed || r.rkilled {
		dead := r.closed
		r.mu.Unlock()
		set.close()
		if dead {
			return ErrClosed
		}
		return errKilled
	}
	r.next = set
	r.watermark = 0
	r.mig.Active = true
	r.mig.FromShards = from.Shards
	r.mig.ToShards = to.Shards
	r.mig.Watermark = 0
	r.mu.Unlock()
	return nil
}

// copyChunk migrates [lo, hi): hold new writes to the chunk, drain the
// prior admission generation, copy each block as ordinary accesses,
// journal the advance, and only then publish the watermark.
func (r *ShardedService) copyChunk(ctx context.Context, donor, rcpt *shardSet, lo, hi uint64) error {
	start := time.Now()
	r.mu.Lock()
	if r.closed || r.rkilled {
		dead := r.closed
		r.mu.Unlock()
		if dead {
			return ErrClosed
		}
		return errKilled
	}
	r.barrier, r.barLo, r.barHi = true, lo, hi
	oldPar := int(r.gen & 1)
	r.gen++
	for r.active[oldPar] > 0 && !r.closed && !r.rkilled {
		r.cond.Wait()
	}
	dead := r.closed || r.rkilled
	closedNow := r.closed
	r.mu.Unlock()
	lift := func() {
		r.mu.Lock()
		r.barrier = false
		r.cond.Broadcast()
		r.mu.Unlock()
	}
	if dead {
		lift()
		if closedNow {
			return ErrClosed
		}
		return errKilled
	}
	stall := time.Since(start)

	for a := lo; a < hi; a++ {
		if r.rkill(ReshardKillMidStream) {
			lift()
			return errKilled
		}
		var data []byte
		err := r.migOp(donor, donor.policy.ShardOf(a), func(svc *Service) error {
			out, err := svc.Read(ctx, donor.policy.Local(a))
			if err == nil {
				data = out
			}
			return err
		})
		if err != nil {
			lift()
			return err
		}
		err = r.migOp(rcpt, rcpt.policy.ShardOf(a), func(svc *Service) error {
			return svc.Write(ctx, rcpt.policy.Local(a), data)
		})
		if err != nil {
			lift()
			return err
		}
	}

	if _, err := r.rlog.Append(wal.OpReshardAdvance, hi, nil); err != nil {
		lift()
		return fmt.Errorf("forkoram: router journal: %w", err)
	}
	if r.rkill(ReshardKillAdvance) {
		lift()
		return errKilled
	}
	if err := r.rlog.Sync(); err != nil {
		lift()
		return fmt.Errorf("forkoram: router journal: %w", err)
	}
	r.mu.Lock()
	r.watermark = hi
	r.barrier = false
	r.mig.Watermark = hi
	r.mig.BlocksMoved += hi - lo
	r.mig.Chunks++
	r.mig.StallNs += uint64(stall.Nanoseconds())
	r.cond.Broadcast()
	r.mu.Unlock()
	return nil
}

// migOp runs one migration access against the current incarnation of a
// shard, cold-starting it (bounded) when the incarnation is dead: shard
// kills stall the migration, they do not abort it.
func (r *ShardedService) migOp(set *shardSet, sh int, f func(*Service) error) error {
	for attempt := 0; ; attempt++ {
		r.mu.Lock()
		closed, killed := r.closed, r.rkilled
		svc := set.svcs[sh]
		r.mu.Unlock()
		if closed {
			return ErrClosed
		}
		if killed {
			return errKilled
		}
		err := f(svc)
		if err == nil || !errors.Is(err, errKilled) {
			return err
		}
		if attempt >= migMaxRestarts {
			return fmt.Errorf("forkoram: shard %d (policy v%d) stayed down through %d restarts: %w",
				sh, set.policy.Version, attempt, err)
		}
		if _, rerr := r.restartIn(set, sh, svc); rerr != nil {
			if errors.Is(rerr, ErrClosed) {
				return ErrClosed
			}
			if !errors.Is(rerr, errKilled) {
				return rerr
			}
			// The cold start itself was crash-injected; back off, retry.
			r.cfg.sleep(healBackoff(r.cfg.SelfHeal, attempt+1))
		}
	}
}

// cutover commits the recipient policy and retires the donor set.
func (r *ShardedService) cutover() error {
	r.mu.Lock()
	if r.next == nil {
		// Resumed past the copy with the cutover already journaled.
		pending := r.pendingFinal
		donors, dp := r.donors, r.donorPolicy
		r.mu.Unlock()
		if pending {
			return r.retireDonors(donors, dp)
		}
		return nil
	}
	r.mu.Unlock()
	if _, err := r.rlog.Append(wal.OpReshardCutover, 0, nil); err != nil {
		return fmt.Errorf("forkoram: router journal: %w", err)
	}
	if r.rkill(ReshardKillCutover) {
		return errKilled
	}
	if err := r.rlog.Sync(); err != nil {
		return fmt.Errorf("forkoram: router journal: %w", err)
	}
	r.mu.Lock()
	donors := r.cur
	r.cur = r.next
	r.next = nil
	r.watermark = 0
	r.pendingFinal = true
	r.donors = donors
	r.donorPolicy = donors.policy
	r.mig.Active = false
	r.mig.Epoch = r.cur.policy.Version
	r.mig.Completed++
	r.mu.Unlock()
	return r.retireDonors(donors, donors.policy)
}

// drainOutstanding waits for every operation admitted before the call
// to exit, so no in-flight request still holds a routing view over a
// set about to be closed.
func (r *ShardedService) drainOutstanding() {
	r.mu.Lock()
	oldPar := int(r.gen & 1)
	r.gen++
	for r.active[oldPar] > 0 && !r.closed && !r.rkilled {
		r.cond.Wait()
	}
	r.mu.Unlock()
}

// retireDonors closes the donor generation (when it is still running)
// and truncates its journals, then journals OpReshardFinal. donors is
// nil when finishing a rebuilt fleet's pending retirement; then the
// donor configs are re-derived from donorPolicy so the same stores are
// found. Idempotent: a crash between truncation and the final record
// just re-runs it.
func (r *ShardedService) retireDonors(donors *shardSet, donorPolicy RoutingPolicy) error {
	var cfgs []ServiceConfig
	if donors != nil {
		r.drainOutstanding()
		// Donor data is fully copied; close errors (a killed donor
		// supervisor, a degraded device) must not fail the migration.
		donors.close()
		cfgs = donors.cfgs
	} else {
		cfgs = make([]ServiceConfig, donorPolicy.Shards)
		for i := range cfgs {
			cfgs[i] = r.shardConfig(donorPolicy, i)
		}
	}
	for _, sc := range cfgs {
		if err := sc.WAL.Reset(); err != nil {
			return fmt.Errorf("forkoram: retire donor journal: %w", err)
		}
	}
	if r.rkill(ReshardKillFinalize) {
		return errKilled
	}
	if err := r.appendRouter(wal.OpReshardFinal, 0, nil); err != nil {
		return err
	}
	r.mu.Lock()
	r.pendingFinal = false
	r.donors = nil
	r.donorPolicy = RoutingPolicy{}
	r.mu.Unlock()
	return nil
}

// rkill consults the chaos hook at a migration kill point; true means
// the router is now dead (every subsequent admission answers errKilled)
// and the caller must unwind.
func (r *ShardedService) rkill(p ReshardCrashPoint) bool {
	hook := r.cfg.reshardHook
	if hook == nil || !hook(p) {
		return false
	}
	r.mu.Lock()
	r.rkilled = true
	r.cond.Broadcast()
	r.mu.Unlock()
	return true
}

// killed reports whether the router was crash-killed at a reshard point
// (chaos harness).
func (r *ShardedService) killed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rkilled
}

// SelfHealConfig tunes the router's background restart loop. By default
// the loop is ON: any shard whose supervisor exited is cold-started
// from its durable stores, with per-shard exponential backoff and a
// consecutive-failure budget — the same discipline the in-shard
// supervisor applies to recoveries.
type SelfHealConfig struct {
	// Disable turns the loop off; ErrShardDown then persists until a
	// manual RestartShard (chaos harnesses drive recovery themselves).
	Disable bool
	// Interval is the poll cadence (default 10ms).
	Interval time.Duration
	// BackoffBase/BackoffMax shape the per-shard retry backoff after a
	// failed restart (defaults 5ms / 250ms, doubling).
	BackoffBase, BackoffMax time.Duration
	// MaxFailures is the consecutive failed-restart budget per shard
	// (default 8). Hitting it parks the shard — ErrShardDown becomes
	// sticky — until a manual RestartShard succeeds; any success resets
	// the count.
	MaxFailures int
}

func (c SelfHealConfig) validate() error {
	if c.Interval < 0 || c.BackoffBase < 0 || c.BackoffMax < 0 {
		return fmt.Errorf("forkoram: SelfHeal durations must be non-negative")
	}
	if c.MaxFailures < 0 {
		return fmt.Errorf("forkoram: SelfHeal.MaxFailures must be non-negative")
	}
	return nil
}

func (c SelfHealConfig) withDefaults() SelfHealConfig {
	if c.Interval == 0 {
		c.Interval = 10 * time.Millisecond
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 5 * time.Millisecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = 250 * time.Millisecond
	}
	if c.MaxFailures == 0 {
		c.MaxFailures = 8
	}
	return c
}

// healBackoff is the delay before retry fails+1 (fails >= 1).
func healBackoff(c SelfHealConfig, fails int) time.Duration {
	d := c.BackoffBase
	for i := 1; i < fails && d < c.BackoffMax; i++ {
		d *= 2
	}
	if d > c.BackoffMax {
		d = c.BackoffMax
	}
	return d
}

// healSlot is one shard's self-heal bookkeeping.
type healSlot struct {
	fails     int
	notBefore time.Time
}

func (r *ShardedService) startSelfHeal() {
	if r.cfg.SelfHeal.Disable {
		return
	}
	r.healStop = make(chan struct{})
	r.healDone = make(chan struct{})
	go r.selfHealLoop(r.healStop, r.healDone)
}

func (r *ShardedService) stopSelfHeal() {
	r.mu.Lock()
	stop, done := r.healStop, r.healDone
	r.healStop, r.healDone = nil, nil
	r.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

func (r *ShardedService) selfHealLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	slots := make(map[*shardSet][]healSlot)
	for {
		select {
		case <-stop:
			return
		default:
		}
		r.healSweep(slots)
		r.cfg.sleep(r.cfg.SelfHeal.Interval)
	}
}

// healSweep makes one pass over every serving shard, restarting the
// dead ones whose backoff window has elapsed and whose failure budget
// remains.
func (r *ShardedService) healSweep(slots map[*shardSet][]healSlot) {
	c := r.cfg.SelfHeal
	now := time.Now()
	for _, set := range r.servingSets() {
		sl := slots[set]
		if sl == nil {
			sl = make([]healSlot, set.policy.Shards)
			slots[set] = sl
		}
		for i := range sl {
			dead := r.svcAt(set, i)
			if dead.State() != stateKilled {
				sl[i] = healSlot{}
				continue
			}
			s := &sl[i]
			if s.fails >= c.MaxFailures || now.Before(s.notBefore) {
				continue
			}
			restarted, err := r.restartIn(set, i, dead)
			if err != nil {
				if errors.Is(err, ErrClosed) {
					return
				}
				s.fails++
				s.notBefore = now.Add(healBackoff(c, s.fails))
				r.mu.Lock()
				r.healFailures++
				r.mu.Unlock()
				continue
			}
			sl[i] = healSlot{}
			if restarted {
				r.mu.Lock()
				r.healRestarts++
				r.mu.Unlock()
			}
		}
	}
}

// healDownShards makes one synchronous pass over every serving shard,
// cold-starting any whose supervisor exited, ignoring backoff and
// budget — the chaos harness's deterministic stand-in for the
// background loop. Restart attempts that are themselves crash-killed
// leave the shard down for the caller's next pass.
func (r *ShardedService) healDownShards() (int, error) {
	healed := 0
	for _, set := range r.servingSets() {
		for i := range set.svcs {
			dead := r.svcAt(set, i)
			if dead.State() != stateKilled {
				continue
			}
			restarted, err := r.restartIn(set, i, dead)
			switch {
			case err == nil:
				if restarted {
					healed++
				}
			case errors.Is(err, errKilled):
				// cold start crash-injected; still down
			default:
				return healed, err
			}
		}
	}
	return healed, nil
}
