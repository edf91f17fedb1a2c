package forkoram

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"forkoram/internal/faults"
	"forkoram/internal/pathoram"
	"forkoram/internal/rng"
	"forkoram/internal/storage"
	"forkoram/internal/tree"
	"forkoram/internal/wal"
)

// Topology names the deployment a crash campaign drives and kills.
type Topology string

// Campaign topologies.
const (
	// TopologyDevice: a bare Device under injected storage faults. Every
	// failure must be typed and poison the device; the harness restores
	// its last quiescent checkpoint and rolls the oracle back.
	TopologyDevice Topology = "device"
	// TopologySingle: one supervised Service, killed at every CrashPoint
	// and reopened over its surviving journal, checkpoint and medium.
	TopologySingle Topology = "single"
	// TopologySharded: a ShardedService whose shard supervisors are
	// killed one at a time; healthy siblings must keep serving reads and
	// writes before the dead shard is restarted.
	TopologySharded Topology = "sharded"
	// TopologyReshard: a ShardedService split online and merged back
	// under client traffic, with the router killed at every
	// ReshardCrashPoint and the fleet rebuilt from its journals.
	TopologyReshard Topology = "reshard"
)

// CampaignConfig parameterizes RunCampaign. Everything else a schedule
// runs — its configuration tuple, sizes, workload and kill plan — is a
// pure function of (Seed, Topology, schedule index), so a failing
// schedule replays exactly.
type CampaignConfig struct {
	Seed     uint64
	Topology Topology
	// Schedules is the number of schedules run (default: one per
	// combination of the topology's dimensions). Any Schedules at or
	// above that product runs every combination.
	Schedules int
}

// Per-topology shapes. BlockSize is shared; blocks size the global
// address space, ops count the client operations a schedule drives
// between open and the final sweep.
const (
	campaignBlockSize = 32

	deviceBlocks = 96
	deviceOps    = 400
	// Fault probability per bucket operation, spread evenly over the
	// menu's kinds (three transient ones, or all six).
	deviceTransientRate = 0.004
	deviceCorruptRate   = 0.006
	// A schedule that keeps failing past this many restores is
	// abandoned: the rate outpaces progress, which is no violation.
	deviceMaxRestores = 25

	// Transient faults under the service topologies' faults decorator,
	// with retries off so the supervisor's in-process heal runs under
	// the process kills.
	serviceFaultRate = 0.002

	singleBlocks = 48
	singleOps    = 48
	singleKills  = 6

	shardedBlocks = 60
	shardedOps    = 64
	shardedWidth  = 3
	shardedKills  = 4 // shared by the whole fleet

	reshardBlocks      = 48
	reshardOps         = 96
	reshardShards      = 2 // every schedule splits to reshardSplit, then merges back
	reshardSplit       = 4
	reshardChunk       = 8
	reshardShardKills  = 2
	reshardRouterKills = 3
)

// schedule is one decoded schedule: its index, seed and configuration
// tuple.
type schedule struct {
	topo   Topology
	idx    int
	seed   uint64
	tuple  []string // the decoded value of every dimension, for reports
	combos int      // product of the topology's dimension sizes

	variant   Variant
	faults    int // device fault menu: faultsTransient, faultsTransientIntegrity, faultsCorrupt
	noRetries bool
	medium    int // mediumMem, mediumDisk, mediumDiskTier
	decorator int // decoPlain, decoIntegrity, decoFaults
	focus     ReshardCrashPoint
}

const (
	faultsTransient = iota
	faultsTransientIntegrity
	faultsCorrupt
)

const (
	mediumMem = iota
	mediumDisk
	mediumDiskTier
)

const (
	decoPlain = iota
	decoIntegrity
	decoFaults
)

// decodeSchedule decodes a schedule index in mixed radix, one digit per
// dimension of the topology, lowest digit first: any run of as many
// consecutive indices as the product of the dimension sizes covers
// every combination exactly once, and no two dimensions are correlated.
func decodeSchedule(topo Topology, seed uint64, idx int) schedule {
	s := schedule{topo: topo, idx: idx, seed: rng.SeedAt(seed, uint64(idx)), combos: 1}
	rest := idx
	pick := func(names ...string) int {
		d := rest % len(names)
		rest /= len(names)
		s.combos *= len(names)
		s.tuple = append(s.tuple, names[d])
		return d
	}
	s.variant = Variant(pick("baseline", "fork"))
	switch topo {
	case TopologyDevice:
		s.faults = pick("transient", "transient+integrity", "corruption+integrity")
		s.noRetries = pick("retries", "no-retries") == 1
	case TopologySingle, TopologySharded:
		s.medium = pick("mem", "disk", "disk+tier")
		s.decorator = pick("plain", "integrity", "faults")
	case TopologyReshard:
		s.decorator = pick("plain", "integrity")
		var points []string
		for p := 0; p < numReshardPoints; p++ {
			points = append(points, ReshardCrashPoint(p).String())
		}
		s.focus = ReshardCrashPoint(pick(points...))
	}
	return s
}

// CampaignReport aggregates a RunCampaign sweep. Each topology fills
// the counters it exercises; the rest stay zero.
type CampaignReport struct {
	Topology  Topology
	Schedules int
	Ops       uint64 // client operations attempted
	Acked     uint64 // acknowledged writes the oracle then holds the deployment to

	// Device: injected faults, retry outcomes, and the poison-and-restore
	// path (restores over a diverged medium that Integrity rejected).
	Injected        faults.Counts
	Retries         pathoram.RetryStats
	TypedErrors     uint64
	Poisonings      uint64
	Restores        uint64
	RestoreRejected uint64

	// Service kills, per CrashPoint and per shard index, and the cold
	// starts (reopens, RestartShard) and supervised recoveries that
	// healed them.
	Crashes     uint64
	PointHits   [numCrashPoints]uint64
	ShardKills  []uint64
	Restarts    uint64
	Recoveries  uint64
	ReplayedOps uint64
	Checkpoints uint64

	// Sharded isolation: shard-down episodes, and the operations healthy
	// siblings served while a shard was down.
	DownEvents    uint64
	SiblingReads  uint64
	SiblingWrites uint64

	// Reshard: committed cutovers, copy work, resumed migrations, router
	// kills per ReshardCrashPoint and the fleet rebuilds after them, and
	// client operations acknowledged while a migration epoch was open.
	Migrations  uint64
	BlocksMoved uint64
	Chunks      uint64
	Resumes     uint64
	RouterKills uint64
	PhaseHits   [numReshardPoints]uint64
	Rebuilds    uint64
	MigReads    uint64
	MigWrites   uint64

	// LostAcks counts acknowledged writes missing on read-back, and
	// SilentCorruptions reads that returned wrong bytes without an error
	// — the two outcomes every topology must rule out.
	LostAcks          uint64
	SilentCorruptions uint64
	// Violations describes failures, capped at 20; each names the
	// topology, the schedule index and its decoded tuple.
	Violations []string
}

// Ok reports whether the campaign finished with no violations.
func (r *CampaignReport) Ok() bool { return len(r.Violations) == 0 }

// String renders the report for the CLI.
func (r *CampaignReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign %s: %d schedules, %d ops, %d acked writes\n", r.Topology, r.Schedules, r.Ops, r.Acked)
	if r.Topology == TopologyDevice {
		fmt.Fprintf(&b, "  injected: %d faults (%d transient-read, %d transient-write, %d dropped, %d torn, %d bit-flip, %d stale-replay)\n",
			r.Injected.Total(), r.Injected.TransientReads, r.Injected.TransientWrites,
			r.Injected.DroppedWrites, r.Injected.TornWrites, r.Injected.BitFlips, r.Injected.StaleReplays)
		fmt.Fprintf(&b, "  retries: %d issued, %d accesses recovered, %d exhausted\n",
			r.Retries.Retried, r.Retries.Recovered, r.Retries.Exhausted)
		fmt.Fprintf(&b, "  failures: %d typed errors, %d poisonings, %d restores (%d rejected over diverged medium)\n",
			r.TypedErrors, r.Poisonings, r.Restores, r.RestoreRejected)
	} else {
		fmt.Fprintf(&b, "  shard kills: %d (", r.Crashes)
		for p := 0; p < numCrashPoints; p++ {
			if p > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%d %s", r.PointHits[p], CrashPoint(p))
		}
		fmt.Fprintf(&b, ")\n  per-shard kills: %v, %d restarts\n", r.ShardKills, r.Restarts)
	}
	if r.Topology == TopologySingle || r.Topology == TopologySharded {
		fmt.Fprintf(&b, "  healing: %d recoveries, %d journal records replayed, %d checkpoints\n",
			r.Recoveries, r.ReplayedOps, r.Checkpoints)
	}
	if r.Topology == TopologySharded {
		fmt.Fprintf(&b, "  isolation: %d shard-down episodes; siblings served %d reads + %d writes while a shard was down\n",
			r.DownEvents, r.SiblingReads, r.SiblingWrites)
	}
	if r.Topology == TopologyReshard {
		fmt.Fprintf(&b, "  migrations: %d committed cutovers, %d blocks copied in %d chunks, %d resumes\n",
			r.Migrations, r.BlocksMoved, r.Chunks, r.Resumes)
		fmt.Fprintf(&b, "  router kills: %d (", r.RouterKills)
		for p := 0; p < numReshardPoints; p++ {
			if p > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%d %s", r.PhaseHits[p], ReshardCrashPoint(p))
		}
		fmt.Fprintf(&b, "), %d fleet rebuilds\n", r.Rebuilds)
		fmt.Fprintf(&b, "  during migration: %d reads + %d writes acknowledged\n", r.MigReads, r.MigWrites)
	}
	fmt.Fprintf(&b, "  lost acknowledged writes: %d, silent corruptions: %d\n", r.LostAcks, r.SilentCorruptions)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
	}
	if r.Ok() {
		b.WriteString("  ok: every acknowledged write survived, every failure was typed and healed\n")
	}
	return b.String()
}

// RunCampaign runs a crash campaign against one topology. Every
// schedule opens the deployment, drives one client workload against a
// map oracle — writes, batches, concurrent bursts and reads — while
// faults or kills land, heals after each with the topology's own heal
// step, and resolves every write a failure left in flight by reading it
// back: the old or the new value, nothing else. A final sweep reads the
// whole address space, and a scrub of each quiesced device checks Path
// ORAM's invariant (every block on its path or in the stash).
func RunCampaign(cfg CampaignConfig) CampaignReport {
	rep := CampaignReport{Topology: cfg.Topology}
	n := cfg.Schedules
	if n == 0 {
		n = decodeSchedule(cfg.Topology, cfg.Seed, 0).combos
	}
	for i := 0; i < n; i++ {
		rep.Schedules++
		runCampaignSchedule(&rep, decodeSchedule(cfg.Topology, cfg.Seed, i))
	}
	return rep
}

// topology is one deployment's side of a schedule: how it opens, what
// it does between client operations, how it heals after a failure, and
// how it shuts down.
type topology interface {
	// open builds the first incarnation; false if the schedule died.
	open(st *campaign) bool
	// tick runs before client operation op.
	tick(st *campaign, op int)
	// heal brings the deployment back after err failed a client
	// operation; false if err is not a failure this topology injects.
	heal(st *campaign, err error) bool
	// finish runs the final sweep, shuts down and scrubs.
	finish(st *campaign)
	// fold adds the counters of the last incarnation and the kill plans
	// to the report, on every exit path.
	fold(st *campaign)
}

// campaignClient is the front door the drive loop talks to.
type campaignClient interface {
	Read(ctx context.Context, addr uint64) ([]byte, error)
	Write(ctx context.Context, addr uint64, data []byte) error
	Batch(ctx context.Context, ops []BatchOp) ([][]byte, error)
}

// campaign is one schedule's live state: the oracle, the writes a
// failure left in flight, and the topology under test.
type campaign struct {
	rep    *CampaignReport
	sched  schedule
	id     string
	topo   topology
	c      campaignClient
	serial bool // c is not goroutine-safe: bursts issue in order
	blocks uint64
	ops    int

	oracle  map[uint64][]byte
	pend    []pendingWrite
	counter uint64
	// busy is the address a readBack is retrying (sibling probes must
	// not overwrite it before the read is compared).
	busy    uint64
	busySet bool
	migOpen bool // a migration epoch was open when the current op began
	dead    bool
}

func runCampaignSchedule(rep *CampaignReport, s schedule) {
	st := &campaign{
		rep:    rep,
		sched:  s,
		id:     fmt.Sprintf("%s #%d [%s]", s.topo, s.idx, strings.Join(s.tuple, " ")),
		oracle: make(map[uint64][]byte),
	}
	switch s.topo {
	case TopologyDevice:
		st.topo, st.blocks, st.ops = &deviceRun{}, deviceBlocks, deviceOps
	case TopologySingle:
		st.topo, st.blocks, st.ops = &singleRun{}, singleBlocks, singleOps
	case TopologySharded:
		st.topo, st.blocks, st.ops = &shardedRun{}, shardedBlocks, shardedOps
	case TopologyReshard:
		st.topo, st.blocks, st.ops = &reshardRun{}, reshardBlocks, reshardOps
	default:
		st.violate("unknown topology")
		return
	}
	defer st.topo.fold(st)
	if !st.topo.open(st) {
		return
	}
	st.drive()
	st.migOpen = false
	if !st.dead {
		st.topo.finish(st)
	}
}

func (st *campaign) violate(format string, args ...any) {
	if len(st.rep.Violations) < 20 {
		st.rep.Violations = append(st.rep.Violations, st.id+": "+fmt.Sprintf(format, args...))
	}
}

// chaosPayload builds a deterministic payload for one write, unique per
// (seed, counter) in its leading bytes regardless of block size.
func chaosPayload(size int, seed, counter uint64) []byte {
	var tag [16]byte
	binary.LittleEndian.PutUint64(tag[:8], counter)
	binary.LittleEndian.PutUint64(tag[8:], seed)
	data := make([]byte, size)
	for i := range data {
		data[i] = tag[i%16] ^ byte(i/16)
	}
	return data
}

// typedFailure reports whether err belongs to the documented failure
// taxonomy: transient storage failure, detected corruption, or the
// poisoned-device marker. Anything else escaping a Device operation
// under fault injection is a harness violation.
func typedFailure(err error) bool {
	return errors.Is(err, storage.ErrTransient) ||
		errors.Is(err, storage.ErrCorrupt) ||
		errors.Is(err, ErrPoisoned)
}

// pendingWrite is a mutation a failure left in flight: the oracle cannot
// know whether it is durable until the address is read back — the
// deployment must return either the old or the new value.
type pendingWrite struct {
	addr uint64
	old  []byte // nil: never written before
	new  []byte
}

// newWrite draws the next payload for addr.
func (st *campaign) newWrite(addr uint64) pendingWrite {
	st.counter++
	return pendingWrite{addr: addr, old: st.oracle[addr], new: chaosPayload(campaignBlockSize, st.sched.seed, st.counter)}
}

// ack commits an acknowledged write to the oracle.
func (st *campaign) ack(p pendingWrite) {
	st.oracle[p.addr] = p.new
	st.rep.Acked++
	if st.migOpen {
		st.rep.MigWrites++
	}
}

// distinct draws n distinct addresses.
func (st *campaign) distinct(wl *rng.Source, n int) []uint64 {
	used := make(map[uint64]bool, n)
	addrs := make([]uint64, 0, n)
	for len(addrs) < n {
		if a := wl.Uint64n(st.blocks); !used[a] {
			used[a] = true
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// drive runs the client workload: writes, batches of distinct
// addresses, concurrent bursts of distinct writes, and reads.
func (st *campaign) drive() {
	ctx := context.Background()
	wl := rng.New(rng.SeedAt(st.sched.seed, 4))
	for op := 0; op < st.ops && !st.dead; op++ {
		st.topo.tick(st, op)
		if st.dead {
			return
		}
		st.rep.Ops++
		switch roll := wl.Float64(); {
		case roll < 0.40:
			st.write(ctx, wl.Uint64n(st.blocks))
		case roll < 0.60:
			addrs := st.distinct(wl, 2+int(wl.Uint64n(4)))
			ops := make([]BatchOp, len(addrs))
			var pend []pendingWrite
			for i, a := range addrs {
				ops[i].Addr = a
				if wl.Float64() < 0.6 {
					p := st.newWrite(a)
					ops[i].Write, ops[i].Data = true, p.new
					pend = append(pend, p)
				}
			}
			// A failed batch may have applied any subset of its writes (a
			// cross-shard batch commits per shard): every write settles
			// as in flight.
			out, err := st.c.Batch(ctx, ops)
			if !st.settle(err, pend, "batch") {
				continue
			}
			for _, p := range pend {
				st.ack(p)
			}
			for i, o := range ops {
				if !o.Write {
					st.compareRead(o.Addr, out[i])
				}
			}
		case roll < 0.70:
			st.burst(ctx, st.distinct(wl, 2+int(wl.Uint64n(3))))
		default:
			st.checkRead(wl.Uint64n(st.blocks))
		}
	}
}

// write issues one write of a fresh payload to addr.
func (st *campaign) write(ctx context.Context, addr uint64) {
	p := st.newWrite(addr)
	if st.settle(st.c.Write(ctx, addr, p.new), []pendingWrite{p}, "write") {
		st.ack(p)
	}
}

// burst puts several writes in the admission queue at once so the
// supervisor coalesces them into one group commit — the only way to
// reach the group kill sites and the group ack rule (every write acked
// by one sync, or none). Addresses are distinct, so acks commit
// independently.
func (st *campaign) burst(ctx context.Context, addrs []uint64) {
	st.rep.Ops += uint64(len(addrs) - 1) // the drive loop counted one
	pend := make([]pendingWrite, len(addrs))
	errs := make([]error, len(addrs))
	for i, a := range addrs {
		pend[i] = st.newWrite(a)
	}
	svc, queued := st.c.(*Service)
	switch {
	case st.serial:
		for i := range pend {
			if errs[i] = st.c.Write(ctx, pend[i].addr, pend[i].new); errs[i] != nil {
				pend, errs = pend[:i+1], errs[:i+1] // the rest never issued
				break
			}
		}
	case queued:
		// One goroutine admits the whole burst back to back, then waits:
		// the run loop finds it queued as one window. Concurrent writers
		// reach the queue together only while the host has a core free
		// to run them; on a busy host each would commit alone.
		reqs := make([]*svcReq, 0, len(pend))
		for i := range pend {
			req := &svcReq{kind: reqWrite, addr: pend[i].addr, data: pend[i].new}
			if errs[i] = svc.admit(ctx, req); errs[i] != nil {
				pend, errs = pend[:i+1], errs[:i+1] // the rest never issued
				break
			}
			reqs = append(reqs, req)
		}
		for i, req := range reqs {
			_, errs[i] = svc.await(ctx, req)
		}
	default:
		var wg sync.WaitGroup
		for i := range pend {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = st.c.Write(ctx, pend[i].addr, pend[i].new)
			}(i)
		}
		wg.Wait()
	}
	var failure error
	var inFlight []pendingWrite
	for i, err := range errs {
		switch {
		case err == nil:
			st.ack(pend[i])
		case failure == nil:
			failure = err
			inFlight = append(inFlight, pend[i])
		case errors.Is(err, errKilled):
			inFlight = append(inFlight, pend[i])
		default:
			st.violate("burst write failed with unexpected error: %v", err)
			st.dead = true
			return
		}
	}
	if failure != nil {
		st.settle(failure, inFlight, "burst write")
	}
}

// settle classifies a client operation's error: nil means acknowledged
// (the caller commits the oracle). Otherwise the topology heals and
// every write of the operation is resolved by read-back. Reports
// whether the operation was acknowledged.
func (st *campaign) settle(err error, pend []pendingWrite, what string) bool {
	if err == nil {
		return true
	}
	st.pend = append(st.pend, pend...)
	st.heal(err, what)
	st.resolvePend()
	return false
}

func (st *campaign) heal(err error, what string) {
	if !st.topo.heal(st, err) {
		st.violate("%s failed with unexpected error: %v", what, err)
		st.dead = true
	}
}

// resolvePend settles every in-flight write by read-back: the new value
// (durable — promote the oracle) or the old one (torn away before its
// ack); anything else is a silent corruption.
func (st *campaign) resolvePend() {
	for len(st.pend) > 0 && !st.dead {
		p := st.pend[0]
		st.pend = st.pend[1:]
		got, ok := st.readBack(p.addr)
		if !ok {
			return
		}
		old := p.old
		if old == nil {
			old = make([]byte, campaignBlockSize)
		}
		switch {
		case bytes.Equal(got, p.new):
			st.oracle[p.addr] = p.new
		case !bytes.Equal(got, old):
			st.rep.SilentCorruptions++
			st.violate("in-flight write at addr %d resolved to neither old nor new value", p.addr)
		}
	}
}

// readBack reads addr, healing through every failure that lands during
// the read. ok=false means the schedule died.
func (st *campaign) readBack(addr uint64) ([]byte, bool) {
	st.busy, st.busySet = addr, true
	defer func() { st.busySet = false }()
	for !st.dead {
		got, err := st.c.Read(context.Background(), addr)
		if err == nil {
			return got, true
		}
		st.heal(err, fmt.Sprintf("read %d", addr))
	}
	return nil, false
}

// checkRead reads addr and holds it to the oracle, then settles any
// in-flight writes the healing left behind (sibling probes) before the
// next client operation can overwrite their evidence.
func (st *campaign) checkRead(addr uint64) {
	if got, ok := st.readBack(addr); ok {
		st.compareRead(addr, got)
	}
	st.resolvePend()
}

// compareRead holds a successful read to the oracle; a mismatch on an
// acknowledged write is a lost ack, and a silent corruption either way.
func (st *campaign) compareRead(addr uint64, got []byte) {
	if st.migOpen {
		st.rep.MigReads++
	}
	want, acked := st.oracle[addr]
	if want == nil {
		want = make([]byte, campaignBlockSize)
	}
	if bytes.Equal(got, want) {
		return
	}
	st.rep.SilentCorruptions++
	if acked {
		st.rep.LostAcks++
		st.violate("acknowledged write at addr %d lost", addr)
	} else {
		st.violate("read at addr %d returned wrong data", addr)
	}
}

// sweep reads the whole address space back against the oracle.
func (st *campaign) sweep() {
	for addr := uint64(0); addr < st.blocks && !st.dead; addr++ {
		st.rep.Ops++
		st.checkRead(addr)
	}
}

// coldStart opens an incarnation over the schedule's stores. Opening
// recovers from them and so passes crash points itself: loop until an
// incarnation survives its own recovery; the kill budget bounds the
// loop.
func coldStart[T campaignClient](st *campaign, open func() (T, error)) T {
	for {
		svc, err := open()
		if err == nil {
			st.c = svc
			return svc
		}
		if !errors.Is(err, errKilled) {
			st.violate("open: %v", err)
			st.dead = true
			return svc
		}
	}
}

// retire folds one finished or killed Service incarnation's counters
// into the report; each incarnation is retired exactly once.
func (st *campaign) retire(svc *Service) {
	s := svc.Stats()
	st.rep.Recoveries += s.Recoveries
	st.rep.ReplayedOps += s.ReplayedOps
	st.rep.Checkpoints += s.Checkpoints
}

// serviceConfig is the per-shard ServiceConfig the schedule's tuple
// decodes to.
func (st *campaign) serviceConfig() ServiceConfig {
	s := st.sched
	dev := DeviceConfig{
		Blocks:    st.blocks,
		BlockSize: campaignBlockSize,
		QueueSize: 4,
		Seed:      rng.SeedAt(s.seed, 3),
		Variant:   s.variant,
	}
	switch s.decorator {
	case decoIntegrity:
		dev.Integrity = true
	case decoFaults:
		p := serviceFaultRate / 3
		dev.Faults = &faults.Config{
			Seed:           rng.SeedAt(s.seed, 2),
			PTransientRead: p, PTransientWrite: p, PDroppedWrite: p,
		}
		dev.Retries = -1
	}
	cfg := ServiceConfig{
		Device:          dev,
		QueueDepth:      8,
		CheckpointEvery: 8, // frequent checkpoints: more save/truncate windows to kill in
		MaxRecoveries:   50,
		// The harness waits for nothing. Recovery backoff would only
		// slow the heal loop down. The burst linger buys nothing either:
		// one sequential client can never fill a window, and gather has
		// no crash point — while the linger's sub-millisecond timer
		// sleeps a whole netpoller tick on every op.
		BackoffBase: time.Nanosecond,
		BackoffMax:  time.Nanosecond,
		BurstLinger: -1,
	}
	if s.medium != mediumMem {
		// The background scrub walker runs over disk frames, reaching
		// the mid-scrub kill site.
		cfg.ScrubEvery, cfg.ScrubFrames = 2, 16
	}
	if s.medium == mediumDiskTier {
		cfg.Device.Storage.TierBytes = 1 << 14
	}
	return cfg
}

// killPlan arms shard-supervisor kills at pseudo-random crash-hook
// consultations. Firing "at the Nth consultation" rather than at a
// fixed point spreads kills over every CrashPoint the shard consults,
// the recovery-path points reachable only while healing included:
// after a kill the next one is armed soon, so crashes that land while
// the previous one is being healed are common. A single service is a
// one-shard fleet whose plan holds the whole budget; across a fleet the
// budget is shared. mu guards the plan's state: a shard's successive
// incarnations consult it from different goroutines (each one's run
// loop, and the cold start whose journal reopen may truncate a torn
// tail), and the report reads its hit counts after the fleet closes.
type killPlan struct {
	mu     sync.Mutex
	wl     *rng.Source
	store  *wal.MemStore
	budget *atomic.Int64
	count  uint64
	next   uint64
	hits   [numCrashPoints]uint64
}

func newKillPlan(seed uint64, store *wal.MemStore, budget *atomic.Int64, span uint64) *killPlan {
	p := &killPlan{wl: rng.New(seed), store: store, budget: budget}
	p.next = 1 + p.wl.Uint64n(span)
	store.CrashTruncate = p.truncateCrash
	return p
}

// fire consumes one unit of the kill budget if this consultation is
// armed. Caller holds mu.
func (p *killPlan) fire(pt CrashPoint) bool {
	p.count++
	if p.count < p.next || p.budget.Load() <= 0 {
		return false
	}
	if p.budget.Add(-1) < 0 {
		p.budget.Add(1) // another shard took the last unit
		return false
	}
	p.next = p.count + 1 + p.wl.Uint64n(24)
	p.hits[pt]++
	return true
}

// hook is the ServiceConfig.crashHook: a kill also tears the journal's
// unsynced buffer at a random byte boundary, the arbitrary prefix a real
// crash leaves behind an unfinished write.
func (p *killPlan) hook(pt CrashPoint) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.fire(pt) {
		return false
	}
	p.store.Crash(int(p.wl.Uint64n(uint64(p.store.Buffered()) + 1)))
	return true
}

// truncateCrash is the MemStore.CrashTruncate hook: a kill inside
// wal.Open's torn-tail truncation while a previous crash is being
// reopened from. Whether the truncation persisted is itself random —
// both outcomes must recover identically.
func (p *killPlan) truncateCrash(int) (error, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.fire(CrashMidCompaction) {
		return nil, false
	}
	return errKilled, p.wl.Uint64n(2) == 0
}

// tear is the ServiceConfig.crashTear: a mid-write kill leaves anywhere
// from none to all of the frame's bytes behind.
func (p *killPlan) tear(frameLen int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.wl.Uint64n(uint64(frameLen) + 1))
}

func (p *killPlan) kills() uint64 {
	var n uint64
	for _, h := range p.hits {
		n += h
	}
	return n
}

// fleetStores owns a schedule's durable per-(policy version, shard)
// stores — journal, checkpoint store, disk medium — and kill plans,
// created on first use by the PerShard hook: a restart, or a fleet
// rebuilt mid-migration, finds the same stores again, keyed exactly as
// the hook contract says. PerShard runs from the constructor, the
// migrator's restarts and the harness's heal passes, so it locks.
type fleetStores struct {
	mu     sync.Mutex
	seed   uint64
	span   uint64
	budget atomic.Int64
	dir    string // disk media live here; empty for the in-memory medium
	shards map[[2]uint64]*shardStores
	err    error
}

type shardStores struct {
	wal  *wal.MemStore
	ckpt *MemCheckpointStore
	disk *storage.Disk
	plan *killPlan
}

// newFleetStores sizes the kill plans so the first kill lands anywhere
// in the schedule: roughly two consultations per write and one per
// read, half the ops write, spread over width shards.
func newFleetStores(st *campaign, width, kills int) *fleetStores {
	f := &fleetStores{
		seed:   st.sched.seed,
		span:   uint64(st.ops)*3/(2*uint64(width)) + 8,
		shards: make(map[[2]uint64]*shardStores),
	}
	f.budget.Store(int64(kills))
	if st.sched.medium != mediumMem {
		f.dir, f.err = os.MkdirTemp("", "forkoram-campaign")
	}
	return f
}

// install is the PerShard hook.
func (f *fleetStores) install(p RoutingPolicy, shard int, sc *ServiceConfig) {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := [2]uint64{p.Version, uint64(shard)}
	s := f.shards[k]
	if s == nil {
		s = &shardStores{wal: wal.NewMemStore(), ckpt: NewMemCheckpointStore()}
		s.plan = newKillPlan(rng.SeedAt(f.seed, 100+31*p.Version+uint64(shard)), s.wal, &f.budget, f.span)
		if f.dir != "" {
			disk, err := NewDiskMedium(sc.Device, filepath.Join(f.dir, fmt.Sprintf("v%d-%d.oram", p.Version, shard)))
			if err != nil && f.err == nil {
				f.err = err
			}
			s.disk = disk
		}
		f.shards[k] = s
	}
	sc.WAL, sc.Checkpoints = s.wal, s.ckpt
	if s.disk != nil {
		sc.Device.Storage.Medium = s.disk
	}
	sc.crashHook, sc.crashTear = s.plan.hook, s.plan.tear
	sc.sleep = func(time.Duration) {}
}

// check reports a store that failed to open.
func (f *fleetStores) check(st *campaign) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		st.violate("open stores: %v", f.err)
		st.dead = true
	}
	return f.err == nil
}

// fold adds every plan's kills to the report and releases the disk
// media. Call after the last incarnation is closed.
func (f *fleetStores) fold(rep *CampaignReport) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for k, s := range f.shards {
		for int(k[1]) >= len(rep.ShardKills) {
			rep.ShardKills = append(rep.ShardKills, 0)
		}
		n := s.plan.kills()
		rep.ShardKills[k[1]] += n
		rep.Crashes += n
		for pt, n := range s.plan.hits {
			rep.PointHits[pt] += n
		}
		if s.disk != nil {
			s.disk.Close()
		}
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// ---------------------------------------------------------------------
// device: a bare Device under injected storage faults.
// ---------------------------------------------------------------------

// deviceClient puts the campaign's front door on a bare Device.
type deviceClient struct{ d *Device }

func (c deviceClient) Read(_ context.Context, addr uint64) ([]byte, error) {
	return c.d.Read(addr)
}

func (c deviceClient) Write(_ context.Context, addr uint64, data []byte) error {
	return c.d.Write(addr, data)
}

func (c deviceClient) Batch(_ context.Context, ops []BatchOp) ([][]byte, error) {
	return c.d.Batch(ops)
}

// deviceRun takes periodic quiescent checkpoints (snapshot, medium
// backup, oracle copy, scrub) and, on every failure, verifies the
// taxonomy end to end: the error is typed, the device poisoned itself
// and refuses further operations, with Integrity a restore over the
// diverged medium is rejected, and restoring the checkpoint resumes
// with every later read matching the rolled-back oracle.
type deviceRun struct {
	d        *Device
	ckSnap   *Snapshot
	ckMedium map[tree.Node][]byte
	ckOracle map[uint64][]byte
	restores int
}

func (t *deviceRun) open(st *campaign) bool {
	s := st.sched
	fc := faults.Config{Seed: rng.SeedAt(s.seed, 1)}
	if s.faults == faultsCorrupt {
		p := deviceCorruptRate / 6
		fc.PTransientRead, fc.PTransientWrite, fc.PDroppedWrite = p, p, p
		fc.PTornWrite, fc.PBitFlip, fc.PStaleReplay = p, p, p
	} else {
		p := deviceTransientRate / 3
		fc.PTransientRead, fc.PTransientWrite, fc.PDroppedWrite = p, p, p
	}
	retries := 0
	if s.noRetries {
		retries = -1 // every transient poisons: the restore path runs
	}
	d, err := NewDevice(DeviceConfig{
		Blocks:    st.blocks,
		BlockSize: campaignBlockSize,
		QueueSize: 4,
		Seed:      rng.SeedAt(s.seed, 2),
		Variant:   s.variant,
		// Without the Merkle layer payload corruption is silent by
		// design — the documented gap, not a finding.
		Integrity: s.faults != faultsTransient,
		Retries:   retries,
		Faults:    &fc,
	})
	if err != nil {
		st.violate("NewDevice: %v", err)
		return false
	}
	t.d, st.c, st.serial = d, deviceClient{d}, true
	t.checkpoint(st)
	return !st.dead
}

func (t *deviceRun) tick(st *campaign, op int) {
	if op > 0 && op%(st.ops/4) == 0 {
		t.checkpoint(st)
	}
}

// checkpoint takes a quiescent snapshot, medium backup and oracle copy,
// audited by Scrub. A latent corruption the audit surfaces rolls back
// to the previous checkpoint rather than committing a corrupt one.
func (t *deviceRun) checkpoint(st *campaign) {
	snap, err := t.d.Snapshot()
	if err != nil {
		st.heal(err, "snapshot")
		return
	}
	if err := t.d.Scrub(); err != nil {
		if !typedFailure(err) {
			st.violate("scrub failed with untyped error: %v", err)
		}
		if t.ckSnap == nil {
			st.violate("first checkpoint already corrupt: %v", err)
			st.dead = true
			return
		}
		t.restore(st)
		return
	}
	t.ckSnap = snap
	t.ckMedium = cloneMedium(t.d)
	t.ckOracle = maps.Clone(st.oracle)
}

func (t *deviceRun) heal(st *campaign, err error) bool {
	if typedFailure(err) {
		st.rep.TypedErrors++
	} else {
		st.violate("failed with untyped error: %v", err)
	}
	if t.d.Poisoned() == nil {
		st.violate("failed (%v) but device is not poisoned", err)
	} else {
		st.rep.Poisonings++
		if _, rerr := t.d.Read(0); !errors.Is(rerr, ErrPoisoned) {
			st.violate("poisoned device served a read (err=%v)", rerr)
		}
	}
	t.restore(st)
	return true
}

// restore rolls the schedule back to its last checkpoint. With
// Integrity it first restores the client snapshot over the surviving
// medium and requires the typed rejection unless the medium genuinely
// matches the backup; then it puts the medium back and resumes.
func (t *deviceRun) restore(st *campaign) {
	t.retire(st)
	t.restores++
	if t.restores > deviceMaxRestores {
		st.dead = true
		return
	}
	// A derived fault seed per restore: replaying the same schedule from
	// the same checkpoint would crash the same way forever.
	fc := *t.ckSnap.cfg.Faults
	fc.Seed = rng.SeedAt(fc.Seed, 1000+uint64(t.restores))
	t.ckSnap.cfg.Faults = &fc

	if t.ckSnap.cfg.Integrity {
		nd, err := RestoreDevice(t.ckSnap)
		switch {
		case err != nil:
			if !errors.Is(err, storage.ErrCorrupt) {
				st.violate("restore over diverged medium rejected with untyped error: %v", err)
			}
			st.rep.RestoreRejected++
		case !mediumEquals(nd, t.ckMedium):
			// The root check passed over a medium that differs from the
			// backup: the Merkle layer accepted diverged storage.
			st.violate("restore accepted a diverged medium")
		default:
			// The medium is unchanged since the checkpoint: the
			// client-only restore is a legitimate resume.
			t.resume(st, nd)
			return
		}
	}
	restoreMedium(t.ckSnap.medium, t.ckSnap.tr, t.ckMedium)
	nd, err := RestoreDevice(t.ckSnap)
	if err != nil {
		st.violate("restore over backed-up medium failed: %v", err)
		st.dead = true
		return
	}
	t.resume(st, nd)
}

func (t *deviceRun) resume(st *campaign, d *Device) {
	t.d, st.c = d, deviceClient{d}
	st.oracle = maps.Clone(t.ckOracle)
	st.pend = nil // rolled back with the device
	st.rep.Restores++
}

func (t *deviceRun) finish(st *campaign) {
	st.sweep()
	if st.dead {
		return
	}
	if _, err := t.d.Snapshot(); err != nil {
		st.heal(err, "final snapshot")
		return
	}
	if err := t.d.Scrub(); err != nil {
		st.violate("final scrub after clean run: %v", err)
	}
}

func (t *deviceRun) fold(st *campaign) { t.retire(st) }

// retire folds the current device's fault and retry counters into the
// report before it is replaced or the schedule ends.
func (t *deviceRun) retire(st *campaign) {
	if t.d == nil {
		return
	}
	if c, ok := t.d.FaultCounts(); ok {
		if st.sched.faults != faultsCorrupt && c.Medium() != 0 {
			st.violate("transient fault menu mutated the medium: %+v", c)
		}
		in := &st.rep.Injected
		in.TransientReads += c.TransientReads
		in.TransientWrites += c.TransientWrites
		in.DroppedWrites += c.DroppedWrites
		in.TornWrites += c.TornWrites
		in.BitFlips += c.BitFlips
		in.StaleReplays += c.StaleReplays
	}
	rs := t.d.RetryStats()
	st.rep.Retries.Retried += rs.Retried
	st.rep.Retries.Recovered += rs.Recovered
	st.rep.Retries.Exhausted += rs.Exhausted
	t.d = nil
}

// ---------------------------------------------------------------------
// single: one supervised Service.
// ---------------------------------------------------------------------

type singleRun struct {
	cfg    ServiceConfig
	stores *fleetStores
	svc    *Service
}

func (t *singleRun) open(st *campaign) bool {
	t.stores = newFleetStores(st, 1, singleKills)
	t.cfg = st.serviceConfig()
	t.stores.install(RoutingPolicy{Version: 1, Shards: 1}, 0, &t.cfg)
	if t.stores.check(st) {
		t.start(st)
	}
	return !st.dead
}

func (t *singleRun) start(st *campaign) {
	t.svc = coldStart(st, func() (*Service, error) { return NewService(t.cfg) })
}

func (t *singleRun) tick(*campaign, int) {}

// heal reopens over the surviving stores. Close first joins the dead
// incarnation's run loop: none of its bucket writes may land after the
// next incarnation restores the shared medium.
func (t *singleRun) heal(st *campaign, err error) bool {
	if !errors.Is(err, errKilled) {
		return false
	}
	t.svc.Close()
	st.retire(t.svc)
	st.rep.Restarts++
	t.start(st)
	return true
}

func (t *singleRun) finish(st *campaign) {
	st.sweep()
	for !st.dead {
		err := t.svc.Close()
		if errors.Is(err, errKilled) {
			// The kill landed inside Close's final checkpoint.
			t.heal(st, err)
			continue
		}
		if err != nil {
			st.violate("close: %v", err)
			return
		}
		if err := t.svc.dev.Scrub(); err != nil {
			st.violate("scrub after close: %v", err)
		}
		return
	}
}

func (t *singleRun) fold(st *campaign) {
	if t.svc != nil {
		t.svc.Close()
		st.retire(t.svc)
	}
	t.stores.fold(st.rep)
}

// ---------------------------------------------------------------------
// sharded: a ShardedService, shard supervisors killed one at a time.
// ---------------------------------------------------------------------

type shardedRun struct {
	stores *fleetStores
	svc    *ShardedService
}

func (t *shardedRun) open(st *campaign) bool {
	t.stores = newFleetStores(st, shardedWidth, shardedKills)
	cfg := ShardedServiceConfig{
		Shards:  shardedWidth,
		Service: st.serviceConfig(),
		// Dead shards stay dead until the harness's own heal step: the
		// sibling probes need them down, and the oracle's resolution
		// order depends on restarts being driven deterministically.
		SelfHeal: SelfHealConfig{Disable: true},
		PerShard: t.stores.install,
	}
	t.svc = coldStart(st, func() (*ShardedService, error) { return NewShardedService(cfg) })
	return !st.dead && t.stores.check(st)
}

func (t *shardedRun) tick(*campaign, int) {}

// heal probes every healthy sibling for a read and a write while the
// killed shards are still down — a down shard degrades only its own
// residue class — then restarts them from their surviving stores.
// Kills landing during the healing itself loop back in; the kill budget
// bounds the loop.
func (t *shardedRun) heal(st *campaign, err error) bool {
	if !errors.Is(err, errKilled) {
		return false
	}
	for !st.dead {
		var downs []int
		for i := 0; i < shardedWidth; i++ {
			if t.svc.shard(i).Stats().State == stateKilled {
				downs = append(downs, i)
			}
		}
		if len(downs) == 0 {
			break
		}
		st.rep.DownEvents++
		t.siblingProbe(st, downs)
		for _, i := range downs {
			if !st.dead {
				t.restart(st, i)
			}
		}
	}
	return true
}

// siblingProbe drives one read and one write through every healthy
// shard while the shards in downs are dead. A probe op that is itself
// killed (another shard's plan firing) leaves its write in flight; the
// heal loop picks up the new corpse.
func (t *shardedRun) siblingProbe(st *campaign, downs []int) {
	// Probes must not touch addresses whose oracle entry is ambiguous:
	// a probe write would destroy the old-or-new evidence.
	avoid := make(map[uint64]bool, len(st.pend)+1)
	for _, p := range st.pend {
		avoid[p.addr] = true
	}
	if st.busySet {
		avoid[st.busy] = true
	}
	ctx := context.Background()
	for sh := 0; sh < shardedWidth && !st.dead; sh++ {
		switch t.svc.shard(sh).Stats().State {
		case StateHealthy:
		case stateKilled:
			// The dead shard itself must refuse, not hang or misroute.
			if _, err := t.svc.Read(ctx, uint64(sh)); !errors.Is(err, ErrShardDown) {
				st.violate("dead shard %d returned %v, want ErrShardDown", sh, err)
				st.dead = true
			}
			continue
		default:
			continue
		}
		addr := uint64(sh) // global address a lives on shard a % width
		for addr < st.blocks && avoid[addr] {
			addr += shardedWidth
		}
		if addr >= st.blocks {
			continue
		}
		st.rep.Ops += 2
		got, err := t.svc.Read(ctx, addr)
		switch {
		case err == nil:
			st.compareRead(addr, got)
			st.rep.SiblingReads++
		case errors.Is(err, errKilled): // this sibling died too; next round
			continue
		default:
			st.violate("sibling read on shard %d failed while shard(s) %v down: %v", sh, downs, err)
			st.dead = true
			continue
		}
		p := st.newWrite(addr)
		switch err := t.svc.Write(ctx, addr, p.new); {
		case err == nil:
			st.ack(p)
			st.rep.SiblingWrites++
		case errors.Is(err, errKilled):
			st.pend = append(st.pend, p)
			avoid[addr] = true
		default:
			st.violate("sibling write on shard %d failed while shard(s) %v down: %v", sh, downs, err)
			st.dead = true
		}
	}
}

// restart retires the dead incarnation, then cold-starts the shard
// from its surviving stores; the restart's own recovery passes crash
// points, so it loops until an incarnation survives.
func (t *shardedRun) restart(st *campaign, i int) {
	st.retire(t.svc.shard(i))
	for {
		err := t.svc.RestartShard(i)
		if err == nil {
			st.rep.Restarts++
			return
		}
		if !errors.Is(err, errKilled) {
			st.violate("shard %d restart: %v", i, err)
			st.dead = true
			return
		}
	}
}

// finish closes the fleet (Close heals shards killed inside their final
// checkpoint itself) and scrubs every shard device.
func (t *shardedRun) finish(st *campaign) {
	st.sweep()
	if st.dead {
		return
	}
	if err := t.svc.Close(); err != nil {
		st.violate("close: %v", err)
		return
	}
	for i := 0; i < shardedWidth; i++ {
		if err := t.svc.shard(i).dev.Scrub(); err != nil {
			st.violate("shard %d scrub after close: %v", i, err)
		}
	}
}

func (t *shardedRun) fold(st *campaign) {
	if t.svc != nil {
		t.svc.Close()
		for i := 0; i < shardedWidth; i++ {
			st.retire(t.svc.shard(i))
		}
	}
	t.stores.fold(st.rep)
}

// ---------------------------------------------------------------------
// reshard: online split and merge-back under traffic, router kills.
// ---------------------------------------------------------------------

// routerPlan arms router kills at ReshardCrashPoint consultations. Each
// schedule focuses on the point its tuple names: the first kill fires at
// a pseudo-random consultation of the focus point, later ones at random
// consultations of any point. The migrator goroutine and
// NewShardedService (a rebuild's pending retirement) both consult it,
// so it locks.
type routerPlan struct {
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

func newRouterPlan(seed uint64, store *wal.MemStore, focus ReshardCrashPoint) *routerPlan {
	p := &routerPlan{wl: rng.New(seed), store: store, budget: reshardRouterKills, focus: focus, nth: 1}
	switch focus {
	case ReshardKillMidStream:
		p.nth = 1 + p.wl.Uint64n(reshardBlocks)
	case ReshardKillAdvance:
		p.nth = 1 + p.wl.Uint64n((reshardBlocks+reshardChunk-1)/reshardChunk)
	}
	return p
}

// hook kills the router and tears the router journal's unsynced buffer
// at a random byte boundary — the appended-but-sync-racing-the-crash
// outcome every kill point documents.
func (p *routerPlan) hook(pt ReshardCrashPoint) bool {
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

// reshardRun prefills half the address space, then splits the fleet
// to reshardSplit shards and merges it back to reshardShards while the
// client workload runs. After a router kill the whole fleet is rebuilt
// from the surviving stores — NewShardedService replays the torn router
// journal into the exact dual-routing state — and the migration
// resumed. Shard kills compose with it: the migration must stall and
// retry, the front door keeps serving the rest of the space.
type reshardRun struct {
	cfg     ShardedServiceConfig
	svc     *ShardedService
	rplan   *routerPlan
	stores  *fleetStores
	target  int  // width the in-flight or next migration drives toward
	merged  bool // the merge back has been launched
	running bool // a Reshard call is in flight on svc
	migErr  chan error
}

func (t *reshardRun) open(st *campaign) bool {
	t.stores = newFleetStores(st, reshardSplit, reshardShardKills)
	rstore := wal.NewMemStore()
	t.rplan = newRouterPlan(rng.SeedAt(st.sched.seed, 20), rstore, st.sched.focus)
	t.target = reshardSplit
	t.migErr = make(chan error, 1)
	t.cfg = ShardedServiceConfig{
		Shards:    reshardShards,
		Service:   st.serviceConfig(),
		RouterWAL: rstore,
		// The harness heals deterministically (healShards); the
		// background loop would race the oracle's resolution order.
		SelfHeal:    SelfHealConfig{Disable: true},
		PerShard:    t.stores.install,
		reshardHook: t.rplan.hook,
		sleep:       func(time.Duration) {},
	}
	t.build(st)
	// The migration must carry real data, and the untouched half pins
	// zero-block routing.
	ctx := context.Background()
	for addr := uint64(0); addr < st.blocks && !st.dead; addr += 2 {
		st.rep.Ops++
		st.write(ctx, addr)
	}
	if st.dead {
		return false
	}
	t.startMig()
	return true
}

func (t *reshardRun) build(st *campaign) {
	t.svc = coldStart(st, func() (*ShardedService, error) { return NewShardedService(t.cfg) })
}

// startMig launches Reshard toward t.target on the migrator goroutine.
func (t *reshardRun) startMig() {
	t.running = true
	go func(svc *ShardedService, target int) {
		t.migErr <- svc.Reshard(context.Background(), ReshardConfig{NewShards: target, ChunkBlocks: reshardChunk})
	}(t.svc, t.target)
}

// step reaps a finished Reshard call (waiting for it when wait is set)
// and launches the merge back once the split landed. Reports whether a
// migration is still running.
func (t *reshardRun) step(st *campaign, wait bool) bool {
	if t.running {
		if wait {
			t.migDone(st, <-t.migErr)
		} else {
			select {
			case err := <-t.migErr:
				t.migDone(st, err)
			default:
			}
		}
	}
	if !t.running && !t.merged && !st.dead && t.svc.Shards() == reshardSplit {
		t.merged, t.target = true, reshardShards
		t.startMig()
	}
	return t.running
}

// migDone classifies a finished Reshard call.
func (t *reshardRun) migDone(st *campaign, err error) {
	t.running = false
	switch {
	case err == nil:
	case errors.Is(err, errKilled):
		t.rebuild(st)
	default:
		st.violate("reshard failed with unexpected error: %v", err)
		st.dead = true
	}
}

// rebuild is the whole-process-death recovery: fold the dead instance's
// migration counters, close it, rebuild over the surviving stores, and
// relaunch the migration if the journal says one is open or the fleet
// is not yet at the target width.
func (t *reshardRun) rebuild(st *campaign) {
	t.foldMig(st)
	t.svc.Close() // errors are moot: acked writes are synced by contract
	if t.build(st); st.dead {
		return
	}
	st.rep.Rebuilds++
	if t.svc.Migrating() || t.svc.Shards() != t.target {
		t.startMig()
	}
}

func (t *reshardRun) foldMig(st *campaign) {
	m := t.svc.Stats().Migration
	st.rep.Migrations += m.Completed
	st.rep.BlocksMoved += m.BlocksMoved
	st.rep.Chunks += m.Chunks
	st.rep.Resumes += m.Resumes
}

func (t *reshardRun) tick(st *campaign, _ int) {
	t.step(st, false)
	if !st.dead {
		st.migOpen = t.svc.Migrating()
	}
}

// heal: ErrShardDown means a shard died under the op — cold-start every
// down shard across both generations; a bare errKilled means the router
// died at a reshard point — join the migrator, which rebuilds.
func (t *reshardRun) heal(st *campaign, err error) bool {
	switch {
	case errors.Is(err, ErrShardDown):
		for !st.dead && t.svc.Stats().Down > 0 {
			n, err := t.svc.healDownShards()
			st.rep.Restarts += uint64(n)
			if err != nil {
				st.violate("heal down shards: %v", err)
				st.dead = true
			}
		}
	case errors.Is(err, errKilled):
		if !t.running {
			st.violate("router killed with no migration running")
			st.dead = true
			break
		}
		t.migDone(st, <-t.migErr)
	default:
		return false
	}
	return true
}

// finish joins the migrations (a router kill mid-join rebuilds and
// relaunches), checks the fleet settled at its seed width, sweeps,
// closes and scrubs.
func (t *reshardRun) finish(st *campaign) {
	for !st.dead && t.step(st, true) {
	}
	st.resolvePend()
	if st.dead {
		return
	}
	if got := t.svc.Shards(); got != reshardShards || t.svc.Migrating() {
		st.violate("fleet ended at %d shards (migrating=%v), want %d settled", got, t.svc.Migrating(), reshardShards)
		st.dead = true
		return
	}
	st.sweep()
	if st.dead {
		return
	}
	if err := t.svc.Close(); err != nil {
		st.violate("close: %v", err)
		return
	}
	for i := 0; i < t.svc.Shards(); i++ {
		if err := t.svc.shard(i).dev.Scrub(); err != nil {
			st.violate("shard %d scrub after close: %v", i, err)
		}
	}
}

func (t *reshardRun) fold(st *campaign) {
	if t.svc != nil {
		t.svc.Close()
		if t.running {
			<-t.migErr // Close aborts the migrator
		}
		t.foldMig(st)
	}
	st.rep.RouterKills += t.rplan.kills
	for pt, n := range t.rplan.hits {
		st.rep.PhaseHits[pt] += n
	}
	t.stores.fold(st.rep)
}
