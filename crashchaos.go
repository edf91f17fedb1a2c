package forkoram

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"forkoram/internal/faults"
	"forkoram/internal/rng"
	"forkoram/internal/wal"
)

// CrashChaosConfig parameterizes RunCrashChaos: a crash-at-every-point
// campaign against the supervised Service. A schedule's workload, device
// and crash plan are a pure function of (Seed, schedule index, variant);
// only the burst case (concurrent writers racing the admission queue, to
// exercise the group-commit path and its kill sites) admits requests in
// scheduler-dependent order — the invariants checked are order-free.
type CrashChaosConfig struct {
	// Seed derives every schedule's workload, device, crash and fault
	// seeds.
	Seed uint64
	// Schedules is the number of independent crash schedules (default
	// 100). Each schedule runs once per Device variant, so the campaign
	// executes 2×Schedules service lifetimes.
	Schedules int
	// Ops is the number of client operations per schedule (default 48).
	Ops int
	// Blocks / BlockSize size each schedule's device (defaults 48 / 32).
	Blocks    uint64
	BlockSize int
	// MaxCrashes bounds the kills injected per schedule (default 3).
	// Crashes cluster: later kills are armed shortly after a reopen, so
	// crash-during-recovery (mid-restore, between checkpoint save and
	// journal truncation) is exercised, not just steady-state kills.
	MaxCrashes int
	// Faults additionally runs half the schedules with low-rate transient
	// storage faults, composing supervised in-process recovery with
	// process death.
	Faults bool
	// Disk runs EVERY schedule over a durable disk bucket store (one
	// file per schedule in a temp dir, the handle shared across that
	// schedule's incarnations like a WAL). Off, every fourth schedule
	// still runs on disk so the disk-only kill sites (mid-bucket-write,
	// mid-scrub) stay covered by the default campaign.
	Disk bool
}

func (c CrashChaosConfig) withDefaults() CrashChaosConfig {
	if c.Schedules == 0 {
		c.Schedules = 100
	}
	if c.Ops == 0 {
		c.Ops = 48
	}
	if c.Blocks == 0 {
		c.Blocks = 48
	}
	if c.BlockSize == 0 {
		c.BlockSize = 32
	}
	if c.MaxCrashes == 0 {
		c.MaxCrashes = 3
	}
	return c
}

// CrashReport aggregates a RunCrashChaos campaign.
type CrashReport struct {
	Schedules int    // service lifetimes executed (2× config.Schedules)
	Ops       uint64 // client operations attempted
	Acked     uint64 // acknowledged mutations the oracle then holds the service to

	Crashes   uint64                 // kills injected
	PointHits [numCrashPoints]uint64 // kills per CrashPoint
	Reopens   uint64                 // service incarnations started (initial open + one per kill survived)

	Recoveries  uint64 // successful supervised restores (in-process + cold-start)
	ReplayedOps uint64 // journal records replayed across them
	Checkpoints uint64

	// LostAcks counts acknowledged writes missing after a recovery, and
	// SilentCorruptions reads that returned wrong bytes without an error —
	// the two outcomes the durability design must rule out.
	LostAcks          uint64
	SilentCorruptions uint64
	// Violations holds failure descriptions, capped at 20.
	Violations []string
}

// Ok reports whether the campaign finished with no violations.
func (r *CrashReport) Ok() bool { return len(r.Violations) == 0 }

func (r *CrashReport) violate(format string, args ...any) {
	if len(r.Violations) < 20 {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// String renders the report for the CLI.
func (r *CrashReport) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "crash-chaos: %d service lifetimes, %d ops, %d acked mutations\n",
		r.Schedules, r.Ops, r.Acked)
	fmt.Fprintf(&b, "  crashes: %d injected (", r.Crashes)
	for p := 0; p < numCrashPoints; p++ {
		if p > 0 {
			fmt.Fprintf(&b, ", ")
		}
		fmt.Fprintf(&b, "%d %s", r.PointHits[p], CrashPoint(p))
	}
	fmt.Fprintf(&b, "), %d reopens\n", r.Reopens)
	fmt.Fprintf(&b, "  healing: %d recoveries, %d journal records replayed, %d checkpoints\n",
		r.Recoveries, r.ReplayedOps, r.Checkpoints)
	fmt.Fprintf(&b, "  lost acknowledged writes: %d, silent corruptions: %d\n",
		r.LostAcks, r.SilentCorruptions)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
	}
	if r.Ok() {
		fmt.Fprintf(&b, "  ok: every acknowledged write survived every crash\n")
	}
	return b.String()
}

// crashPlan arms kills at pseudo-random crash-hook invocations. Firing
// "at the Nth hook consultation" (rather than at a fixed point) spreads
// kills uniformly over every CrashPoint the write path consults,
// including the recovery-path points reachable only while healing.
// mu serializes hook consultations: with the pipelined engine
// engaged, CrashMidServe (serve workers) and CrashMidBucketWrite
// (overlapped writeback goroutines) consult the plan concurrently. The
// journal itself is quiescent during a dispatch window — the service
// worker is blocked inside Batch — so serializing the plan suffices.
type crashPlan struct {
	mu        sync.Mutex
	wl        *rng.Source
	store     *wal.MemStore
	remaining int
	count     uint64
	next      uint64
	hits      [numCrashPoints]uint64
}

func newCrashPlan(seed uint64, store *wal.MemStore, maxCrashes int, span uint64) *crashPlan {
	p := &crashPlan{wl: rng.New(seed), store: store, remaining: maxCrashes}
	p.next = 1 + p.wl.Uint64n(span)
	return p
}

// hook is the ServiceConfig.crashHook: when a kill fires it also tears
// the journal's unsynced buffer at a random byte boundary, modelling the
// arbitrary prefix a real crash can leave behind an unfinished write.
func (p *crashPlan) hook(pt CrashPoint) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.count++
	if p.remaining <= 0 || p.count < p.next {
		return false
	}
	p.remaining--
	p.hits[pt]++
	// Arm the next kill soon: crashes that land while the previous one is
	// still being recovered from are the interesting ones.
	p.next = p.count + 1 + p.wl.Uint64n(24)
	p.store.Crash(int(p.wl.Uint64n(uint64(p.store.Buffered()) + 1)))
	return true
}

// truncateCrash is the MemStore.CrashTruncate hook: a kill landing
// inside wal.Open's torn-tail truncation (between zeroing the tail and
// fsync, in FileStore terms) while a previous crash is being reopened from.
// Whether the truncation persisted is itself random — both outcomes
// must recover identically, since only garbage bytes are ever dropped.
func (p *crashPlan) truncateCrash(int) (error, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.count++
	if p.remaining <= 0 || p.count < p.next {
		return nil, false
	}
	p.remaining--
	p.hits[CrashMidCompaction]++
	p.next = p.count + 1 + p.wl.Uint64n(24)
	return errKilled, p.wl.Uint64n(2) == 0
}

// pendingWrite is a mutation that was killed in flight: the crash landed
// between admission and acknowledgement, so the oracle cannot know
// whether it is durable. After recovery the ambiguity is resolved by
// reading the address back — the service must return either the old or
// the new value, anything else is a corruption.
type pendingWrite struct {
	addr uint64
	old  []byte // nil: never written before
	new  []byte
}

// RunCrashChaos runs the crash-at-every-point campaign: for each
// schedule (and each Device variant) it stands up a supervised Service
// over in-memory journal and checkpoint stores, drives a random
// read/write/batch workload against a plain map oracle, and kills the
// service at crash-hook-selected points of the write path — between
// journal append and the durability barrier, between the barrier and
// apply, after apply but before acknowledgement, between checkpoint save
// and journal truncation, and mid-restore while a previous crash is
// being healed. After every kill it reopens the service over the
// surviving stores (NewService cold-start recovery) and asserts
// read-your-writes for every acknowledged mutation; in-flight mutations
// may land either way, but must land cleanly. The final sweep reads
// every address, closes the service, and scrubs the device.
func RunCrashChaos(cfg CrashChaosConfig) CrashReport {
	cfg = cfg.withDefaults()
	rep := CrashReport{Schedules: 2 * cfg.Schedules}
	for i := 0; i < cfg.Schedules; i++ {
		for _, v := range []Variant{Baseline, Fork} {
			runCrashSchedule(&rep, cfg, uint64(i), v)
		}
	}
	return rep
}

// crashState is one schedule's live state.
type crashState struct {
	rep *CrashReport
	cfg CrashChaosConfig
	id  string

	svcCfg ServiceConfig
	plan   *crashPlan
	svc    *Service
	oracle map[uint64][]byte
	dead   bool
}

func runCrashSchedule(rep *CrashReport, cfg CrashChaosConfig, idx uint64, variant Variant) {
	seed := rng.SeedAt(cfg.Seed, 2*idx+uint64(variant))
	walStore := wal.NewMemStore()
	plan := newCrashPlan(rng.SeedAt(seed, 1), walStore, cfg.MaxCrashes,
		// First kill lands anywhere in the schedule: roughly three hook
		// consultations per write, half the ops are writes.
		uint64(cfg.Ops)*3/2+8)
	walStore.CrashTruncate = plan.truncateCrash
	var fc *faults.Config
	retries := 0
	// Decorator matrix: even schedules verify integrity, schedules ≡1
	// (mod 4) inject storage faults, and schedules ≡3 (mod 4) run the
	// plain medium — the only configuration where the bulk interface is
	// exposed and the intra-shard pipeline (PipelineDepth below) engages,
	// so the mid-pipeline kill site is reachable.
	if cfg.Faults && idx%4 == 1 {
		p := 0.002 / 3
		fc = &faults.Config{
			Seed:           rng.SeedAt(seed, 2),
			PTransientRead: p, PTransientWrite: p, PDroppedWrite: p,
		}
		// Retries disabled: every transient poisons the device, so the
		// supervisor's in-process heal (restore + replay) runs constantly
		// underneath the process kills instead of being absorbed by the
		// controller's retry layer.
		retries = -1
	}
	devCfg := DeviceConfig{
		Blocks:    cfg.Blocks,
		BlockSize: cfg.BlockSize,
		QueueSize: 4,
		Seed:      rng.SeedAt(seed, 3),
		Variant:   variant,
		Integrity: idx%2 == 0,
		Retries:   retries,
		Faults:    fc,
		// Exercise the pipelined engine wherever it can engage (Fork
		// variant, bulk medium, multi-op windows); inert elsewhere.
		// Four accesses in flight: kills land on a serve worker
		// mid-access while sibling accesses are genuinely in flight
		// (CrashMidServe), and bucket-write kills land inside
		// overlapped writeback goroutines.
		PipelineDepth: 4,
	}
	scrubEvery := 0
	// Disk schedules (every even schedule, or all of them with
	// cfg.Disk): the base medium is a real file, so kills can land
	// inside a frame write (leaving a torn, CRC-detectable tail) and the
	// background scrub walker runs — with a write-through RAM treetop as
	// its repair source — reaching the mid-scrub kill site. Even
	// schedules also verify integrity, so the disk tier runs under the
	// Merkle layer.
	if cfg.Disk || idx%2 == 0 {
		dir, err := os.MkdirTemp("", "forkoram-chaos")
		if err != nil {
			rep.violate("schedule %d/%v: disk tempdir: %v", idx, variant, err)
			return
		}
		defer os.RemoveAll(dir)
		disk, err := NewDiskMedium(devCfg, filepath.Join(dir, "buckets.oram"))
		if err != nil {
			rep.violate("schedule %d/%v: open disk medium: %v", idx, variant, err)
			return
		}
		defer disk.Close()
		devCfg.Storage.Medium = disk
		// Schedules ≡3 (mod 4) keep the disk top-of-stack: the RAM tier
		// does not speak the bulk interface, so layering it would
		// disengage the pipeline and lose the bulk-write kill path.
		if idx%4 != 3 {
			devCfg.Storage.TierBytes = 1 << 14
		}
		scrubEvery = 2
	}
	st := &crashState{
		rep: rep,
		cfg: cfg,
		id:  fmt.Sprintf("schedule %d/%v", idx, variant),
		svcCfg: ServiceConfig{
			Device: devCfg,
			// Cross-window schedules (odd): the committer journals and
			// syncs window W+1 while W executes on the applier, the
			// device-side pipeline stays primed across the seam, and the
			// mid-window-seam kill site becomes reachable — including
			// under the fault-injection (≡1 mod 4) decorator.
			CrossWindow:     idx%2 == 1,
			QueueDepth:      8,
			CheckpointEvery: 8, // frequent checkpoints: more save/truncate windows to kill in
			MaxRecoveries:   50,
			BackoffBase:     time.Nanosecond,
			BackoffMax:      time.Nanosecond,
			WAL:             walStore,
			Checkpoints:     NewMemCheckpointStore(),
			ScrubEvery:      scrubEvery,
			ScrubFrames:     16,
			crashHook:       plan.hook,
			crashTear: func(frameLen int) int {
				// A mid-write kill leaves anywhere from none to all of the
				// frame's bytes behind.
				return int(plan.wl.Uint64n(uint64(frameLen) + 1))
			},
			sleep: func(time.Duration) {},
		},
		plan:   plan,
		oracle: make(map[uint64][]byte),
	}
	// Fold the final incarnation's stats and the plan's kill counters in
	// every exit path, including abandoned schedules.
	defer func() {
		st.retire()
		for p, n := range plan.hits {
			rep.PointHits[p] += n
			rep.Crashes += n
		}
	}()
	if !st.openService() {
		return
	}
	st.drive(rng.New(rng.SeedAt(seed, 4)), seed)
	if st.dead {
		return
	}
	// Final sweep: read-your-writes over the whole address space, then a
	// clean shutdown and a structural scrub of the quiesced device.
	for addr := uint64(0); addr < cfg.Blocks && !st.dead; addr++ {
		st.rep.Ops++
		st.checkRead(addr)
	}
	if st.dead {
		return
	}
	for !st.dead {
		svc := st.svc
		err := svc.Close()
		if errors.Is(err, errKilled) {
			// The kill landed inside Close's final checkpoint: a crash like
			// any other. Reopen and shut down the new incarnation.
			if !st.reopen() {
				return
			}
			continue
		}
		if err != nil {
			rep.violate("%s: close: %v", st.id, err)
			return
		}
		if err := svc.dev.Scrub(); err != nil {
			rep.violate("%s: scrub after close: %v", st.id, err)
		}
		return
	}
}

// drive runs the client workload: writes, reads, and small batches.
func (st *crashState) drive(wl *rng.Source, seed uint64) {
	ctx := context.Background()
	var counter uint64
	for op := 0; op < st.cfg.Ops && !st.dead; op++ {
		st.rep.Ops++
		switch roll := wl.Float64(); {
		case roll < 0.45: // write
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
		case roll < 0.60: // batch: distinct addresses, mixed reads and writes
			n := 2 + int(wl.Uint64n(3))
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
		case roll < 0.70: // burst: concurrent distinct-address writes
			// Several writers race into the admission queue together so the
			// supervisor coalesces them into one group commit — the only way
			// to reach the group kill sites (after-group-append/sync) and the
			// group ack rule: every write acked by one sync, or none.
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
			st.rep.Ops += uint64(len(pend) - 1) // loop header counted one
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
			// Addresses are distinct, so acks commit independently; a kill
			// leaves each unacked write ambiguous (group durable-but-unacked,
			// torn away, or never admitted) — resolve settles every one.
			killed := false
			for i, err := range errs {
				switch {
				case err == nil:
					st.oracle[pend[i].addr] = pend[i].new
					st.rep.Acked++
				case errors.Is(err, errKilled):
					killed = true
				default:
					st.rep.violate("%s: burst write failed with unexpected error: %v", st.id, err)
					st.dead = true
				}
			}
			if st.dead {
				continue
			}
			if killed {
				if !st.reopen() {
					continue
				}
				for i, err := range errs {
					if errors.Is(err, errKilled) {
						st.resolve(pend[i])
					}
				}
			}
		default: // read
			st.checkRead(wl.Uint64n(st.cfg.Blocks))
		}
	}
}

// settle classifies an operation's error: nil means acknowledged
// (caller commits the oracle), errKilled means the service died with the
// mutations in flight — reopen and resolve each pending write by reading
// it back. Reports whether the operation was acknowledged.
func (st *crashState) settle(err error, pend []pendingWrite, what string) bool {
	if err == nil {
		return true
	}
	if !errors.Is(err, errKilled) {
		st.rep.violate("%s: %s failed with unexpected error: %v", st.id, what, err)
		st.dead = true
		return false
	}
	if !st.reopen() {
		return false
	}
	for _, p := range pend {
		st.resolve(p)
	}
	return false
}

// reopen retires the killed incarnation and cold-starts a fresh Service
// over the surviving journal and checkpoint stores.
func (st *crashState) reopen() bool {
	// Close waits for the dead incarnation's run loop to exit, which
	// joins its pipelined session: none of its writebacks may land after
	// the next incarnation restores a shared medium.
	st.svc.Close()
	st.retire()
	return st.openService()
}

// openService stands up a Service over the schedule's stores. NewService
// itself passes crash points (mid-restore, after-checkpoint-save), so
// this loops until an incarnation survives its own recovery; the kill
// budget bounds the loop.
func (st *crashState) openService() bool {
	for {
		svc, err := NewService(st.svcCfg)
		if err == nil {
			st.svc = svc
			st.rep.Reopens++
			return true
		}
		if !errors.Is(err, errKilled) {
			st.rep.violate("%s: reopen: %v", st.id, err)
			st.dead = true
			return false
		}
	}
}

// resolve settles one in-flight write after recovery: the read-back must
// produce the new value (the journal record was durable and replay
// applied it — promote the oracle) or the old value (the record was torn
// away — keep the oracle). Anything else lost or corrupted data.
func (st *crashState) resolve(p pendingWrite) {
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
		// Torn away pre-ack: a legitimate outcome for an unacknowledged write.
	default:
		st.rep.SilentCorruptions++
		st.rep.violate("%s: in-flight write at addr %d resolved to neither old nor new value", st.id, p.addr)
	}
}

// checkRead reads addr and holds the result to the oracle.
func (st *crashState) checkRead(addr uint64) {
	got, ok := st.readBack(addr)
	if ok {
		st.compareRead(addr, got)
	}
}

// readBack reads addr, reopening through any kill that lands during the
// read's own recovery path. ok=false means the schedule died.
func (st *crashState) readBack(addr uint64) ([]byte, bool) {
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
		if !st.reopen() {
			return nil, false
		}
	}
	return nil, false
}

// compareRead holds a successful read to the oracle; a mismatch on an
// acknowledged write is a lost ack (and a silent corruption either way).
func (st *crashState) compareRead(addr uint64, got []byte) {
	want, acked := st.oracle[addr]
	if want == nil {
		want = make([]byte, st.cfg.BlockSize)
	}
	if !bytes.Equal(got, want) {
		st.rep.SilentCorruptions++
		if acked {
			st.rep.LostAcks++
			st.rep.violate("%s: acknowledged write at addr %d lost after recovery", st.id, addr)
		} else {
			st.rep.violate("%s: read at addr %d returned wrong data", st.id, addr)
		}
	}
}

// retire folds the finished (or killed) incarnation's stats into the
// report. Stats are per-incarnation, so each Service is retired exactly
// once: on reopen after a kill, or by the schedule's deferred cleanup.
func (st *crashState) retire() {
	if st.svc == nil {
		return
	}
	s := st.svc.Stats()
	st.rep.Recoveries += s.Recoveries
	st.rep.ReplayedOps += s.ReplayedOps
	st.rep.Checkpoints += s.Checkpoints
	st.svc = nil
}
