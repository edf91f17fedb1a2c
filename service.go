package forkoram

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"forkoram/internal/rng"
	"forkoram/internal/storage"
	"forkoram/internal/tree"
	"forkoram/internal/wal"
)

// Service errors.
var (
	// ErrOverloaded is returned under BackpressureReject when the
	// admission queue is full. The operation was not admitted and had no
	// effect; the caller may retry.
	ErrOverloaded = errors.New("forkoram: service overloaded (admission queue full)")
	// ErrClosed is returned for operations submitted after Close.
	ErrClosed = errors.New("forkoram: service closed")
	// ErrUnrecoverable marks operations refused because the supervisor
	// exhausted its recovery budget (or a recovery itself failed
	// terminally). Returned errors wrap it together with the underlying
	// cause chain — errors.As still extracts the *PoisonedError beneath.
	ErrUnrecoverable = errors.New("forkoram: service unrecoverable")
)

// UnrecoverableError is the error the Service returns once supervised
// recovery has given up: the restart budget was exhausted, or a restore
// failed in a way retrying cannot fix. It wraps both ErrUnrecoverable
// and the failure that ended recovery, so errors.Is(err, ErrUnrecoverable)
// and errors.As(err, &(*PoisonedError)) both work.
type UnrecoverableError struct {
	// Cause is the failure that exhausted or broke recovery.
	Cause error
}

// Error implements error.
func (e *UnrecoverableError) Error() string {
	return fmt.Sprintf("forkoram: service unrecoverable (cause: %v)", e.Cause)
}

// Is reports ErrUnrecoverable.
func (e *UnrecoverableError) Is(target error) bool { return target == ErrUnrecoverable }

// Unwrap exposes the terminal cause for errors.Is/As dispatch.
func (e *UnrecoverableError) Unwrap() error { return e.Cause }

// errKilled marks a simulated process kill injected by the crash-chaos
// harness (ServiceConfig.crashHook). Never returned in production use.
var errKilled = errors.New("forkoram: service killed (injected crash)")

// Backpressure selects what admission does when the queue is full.
type Backpressure int

// Backpressure policies.
const (
	// BackpressureBlock blocks the caller until there is queue room, the
	// context is done, or the service closes.
	BackpressureBlock Backpressure = iota
	// BackpressureReject fails fast with ErrOverloaded.
	BackpressureReject
)

// Checkpoint is one durable recovery point: the serialized client
// snapshot (Snapshot.MarshalBinary), a full backup of the untrusted
// medium's ciphertexts at the same quiescent instant, and the journal
// sequence number the pair covers. Restoring the medium backup and the
// snapshot, then replaying journal records with Seq > Seq here,
// reconstructs every acknowledged write.
//
// The medium backup is what a deployment would take as a storage-level
// snapshot of the (remote, untrusted) bucket store; the simulator keeps
// it inline. Only the medium backup is ciphertext. Snapshot holds the
// AES key, the position map and the stash's payloads in plaintext (see
// Snapshot.MarshalBinary), so whoever reads a checkpoint reads every
// block and can decrypt the medium: a CheckpointStore must be trusted
// like the client itself (DESIGN.md §9).
type Checkpoint struct {
	Seq      uint64
	Snapshot []byte
	Medium   map[uint64][]byte
}

// CheckpointStore persists checkpoints. Save must be durable when it
// returns — the Service truncates the journal immediately after, and a
// checkpoint that quietly failed to persist would strand every write
// since the previous one. The store must be trusted: a checkpoint
// carries the key, the position map and plaintext stash payloads (see
// Checkpoint). Nothing seals them.
type CheckpointStore interface {
	// Save durably replaces the newest checkpoint.
	Save(c *Checkpoint) error
	// Load returns the newest checkpoint, or ok=false if none exists.
	Load() (c *Checkpoint, ok bool, err error)
}

// MemCheckpointStore is an in-memory CheckpointStore modelling durable
// storage: Save deep-copies in, Load deep-copies out, so a crashed
// service cannot mutate a saved checkpoint retroactively. Safe for
// concurrent use.
type MemCheckpointStore struct {
	mu sync.Mutex
	ck *Checkpoint
}

// NewMemCheckpointStore returns an empty store.
func NewMemCheckpointStore() *MemCheckpointStore { return &MemCheckpointStore{} }

// Save implements CheckpointStore.
func (s *MemCheckpointStore) Save(c *Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ck = cloneCheckpoint(c)
	return nil
}

// Load implements CheckpointStore.
func (s *MemCheckpointStore) Load() (*Checkpoint, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ck == nil {
		return nil, false, nil
	}
	return cloneCheckpoint(s.ck), true, nil
}

// Clone deep-copies the store — a test hook for recovering twice from
// identical surviving state.
func (s *MemCheckpointStore) Clone() *MemCheckpointStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	cl := &MemCheckpointStore{}
	if s.ck != nil {
		cl.ck = cloneCheckpoint(s.ck)
	}
	return cl
}

func cloneCheckpoint(c *Checkpoint) *Checkpoint {
	cp := &Checkpoint{
		Seq:      c.Seq,
		Snapshot: append([]byte(nil), c.Snapshot...),
		Medium:   make(map[uint64][]byte, len(c.Medium)),
	}
	for n, ct := range c.Medium {
		cp.Medium[n] = append([]byte(nil), ct...)
	}
	return cp
}

// cloneMedium copies every stored ciphertext of the device's medium:
// the medium backup a checkpoint saves next to its snapshot.
func cloneMedium(d *Device) map[tree.Node][]byte {
	m := make(map[tree.Node][]byte)
	for n := uint64(0); n < d.tr.Nodes(); n++ {
		if ct := d.store.Ciphertext(n); ct != nil {
			m[n] = append([]byte(nil), ct...)
		}
	}
	return m
}

// restoreMedium rewrites the medium to exactly the backed-up state.
// Works on any Medium; on a Disk store this also clears torn frames
// left by a mid-write kill (SetCiphertext(nil) zeroes the slot).
func restoreMedium(med storage.Medium, tr tree.Tree, backup map[tree.Node][]byte) {
	for n := uint64(0); n < tr.Nodes(); n++ {
		if ct, ok := backup[n]; ok {
			med.SetCiphertext(n, ct)
		} else {
			med.SetCiphertext(n, nil)
		}
	}
}

// mediumEquals reports whether the device's medium matches a backup.
func mediumEquals(d *Device, backup map[tree.Node][]byte) bool {
	for n := uint64(0); n < d.tr.Nodes(); n++ {
		ct := d.store.Ciphertext(n)
		bk, ok := backup[n]
		if (ct == nil) != !ok || !bytes.Equal(ct, bk) {
			return false
		}
	}
	return true
}

// CrashPoint names a kill site in the Service write path; the crash
// chaos campaign injects process death at each of them and asserts that
// no acknowledged write is lost and nothing is silently corrupted.
type CrashPoint int

// Crash sites, in write-path order.
const (
	// CrashAfterAppend: a dispatch window's journal records are framed
	// and buffered as one batch, the shared durability barrier not yet
	// issued. The records may vanish or persist as a torn prefix; none
	// of the window's operations was acknowledged.
	CrashAfterAppend CrashPoint = iota
	// CrashAfterSync: the window's records are durable behind one sync,
	// none applied yet — replay must reconstruct every one of them.
	CrashAfterSync
	// CrashAfterApply: the window is applied to the device, no
	// acknowledgement sent. Read-only windows consult it too.
	CrashAfterApply
	// CrashAfterCheckpointSave: checkpoint durable, journal not yet
	// truncated — replay must tolerate the already-applied prefix.
	CrashAfterCheckpointSave
	// CrashMidRestore: during recovery, after the medium and client
	// snapshot are restored but before the journal suffix is replayed.
	CrashMidRestore
	// CrashMidCompaction: inside wal.Open's torn-tail truncation on
	// reopen — between the truncate and its durability barrier, so the
	// truncation may or may not have persisted. Injected through the
	// MemStore.CrashTruncate hook rather than the Service crashHook (the
	// Service is not running yet), but reported like any other site.
	CrashMidCompaction
	// CrashMidBucketWrite: inside the disk store's frame write — after
	// the write was issued but before the full frame landed, so the slot
	// may hold the old frame, the new frame, or a torn prefix of it
	// (CRC-detectable garbage). Injected through Disk.SetCrashWrite, so
	// it only fires when the base medium is a *storage.Disk; the next
	// incarnation's recovery must restore the checkpoint image over the
	// torn slot rather than trust it.
	CrashMidBucketWrite
	// CrashMidScrub: at the start of a background scrub slice, before
	// any frame is audited — the scrub cadence counter is already reset,
	// so recovery must not depend on scrub progress for correctness.
	CrashMidScrub
	numCrashPoints = int(CrashMidScrub) + 1
)

// String implements fmt.Stringer.
func (p CrashPoint) String() string {
	switch p {
	case CrashAfterAppend:
		return "after-append"
	case CrashAfterSync:
		return "after-sync"
	case CrashAfterApply:
		return "after-apply"
	case CrashAfterCheckpointSave:
		return "after-checkpoint-save"
	case CrashMidRestore:
		return "mid-restore"
	case CrashMidCompaction:
		return "mid-compaction"
	case CrashMidBucketWrite:
		return "mid-bucket-write"
	case CrashMidScrub:
		return "mid-scrub"
	}
	return fmt.Sprintf("point(%d)", int(p))
}

// ServiceConfig configures a supervised, goroutine-safe ORAM service.
type ServiceConfig struct {
	// Device configures the underlying oblivious block store. The
	// Service owns the device; do not touch it directly.
	Device DeviceConfig
	// QueueDepth bounds the admission queue (default 64), and with it
	// the dispatch window: the worker coalesces up to QueueDepth queued
	// requests into one group commit, whose journal records are framed
	// as one batch, made durable behind a single sync, and served
	// through one Device.Batch so the Fork scheduler merges across the
	// whole window. 1 makes every request commit alone.
	QueueDepth int
	// Backpressure selects blocking vs. fail-fast admission when the
	// queue is full.
	Backpressure Backpressure
	// CheckpointEvery is the number of acknowledged operations between
	// automatic checkpoints (default 128). Checkpoint() forces one.
	CheckpointEvery int
	// BurstLinger bounds how long the worker waits for a second request
	// to join a dispatch window when the first arrives to an empty
	// queue: clients admitted in the same burst may not have enqueued
	// yet (their sends readied the worker before their own enqueues
	// ran). Only the window's first request pays it, and only when the
	// queue is dry — a drained backlog never lingers. Default 25µs;
	// negative disables. The wait is not noise: on an otherwise idle
	// runtime the netpoller rounds a sub-millisecond timer up to a 1 ms
	// tick, so a lone sequential client pays about 1 ms per op (p50
	// 1.07 ms on a 2-vCPU host, Go 1.24). Ignored when QueueDepth <= 1
	// or the service is not healthy.
	BurstLinger time.Duration
	// MaxRecoveries bounds consecutive supervised recoveries (default 8).
	// The counter resets whenever a checkpoint commits — real forward
	// progress — so a service that heals and keeps working is never
	// penalized for old incidents; one that thrashes without completing a
	// checkpoint runs out of budget and degrades or fail-stops.
	MaxRecoveries int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// recovery attempts (defaults 1ms and 100ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// DegradedReads keeps serving reads after the recovery budget is
	// exhausted: the supervisor performs one final restore and the
	// service enters read-only degraded mode (writes fail with
	// ErrUnrecoverable). When false — or when the final restore fails —
	// the service fail-stops instead.
	DegradedReads bool
	// WAL is the journal's durability substrate (default a fresh
	// MemStore). Hand the store of a previous incarnation to resume: if
	// Checkpoints holds a checkpoint, NewService recovers from it and
	// replays this journal before serving. The store must be trusted:
	// journal records hold plaintext addresses and payloads, and only
	// writes are journaled, so even the timing of appends and syncs
	// tells reads from writes.
	WAL wal.Store
	// Checkpoints persists recovery points (default a fresh
	// MemCheckpointStore). The store must be trusted: a checkpoint holds
	// the AES key, the position map and plaintext stash payloads (see
	// Checkpoint).
	Checkpoints CheckpointStore
	// ScrubEvery, when positive, runs a background scrub slice
	// (Device.ScrubSlice) after every ScrubEvery acknowledged mutating
	// operations: frames are audited for torn writes, decode failures,
	// Merkle mismatches and RAM-tier divergence, repaired from the
	// healthy tier when possible, and an unrepairable frame triggers the
	// same supervised restore+replay as any other storage failure. Zero
	// disables background scrubbing.
	ScrubEvery int
	// ScrubFrames bounds one scrub slice (default 32 frames). The walker
	// keeps a cursor, so periodic slices cover the whole tree and wrap.
	ScrubFrames int

	// crashHook, when set, is consulted at every CrashPoint; returning
	// true kills the service as a crash would (chaos harness hook).
	crashHook func(CrashPoint) bool
	// crashTear, when set alongside crashHook, picks how many bytes of
	// the in-flight frame land before a CrashMidBucketWrite kill (chaos
	// harness hook; 0 leaves the old frame intact).
	crashTear func(frameLen int) int
	// sleep overrides time.Sleep for recovery backoff (test hook).
	sleep func(time.Duration)
}

func (c ServiceConfig) withDefaults() ServiceConfig {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 128
	}
	if c.BurstLinger == 0 {
		c.BurstLinger = 25 * time.Microsecond
	}
	if c.MaxRecoveries == 0 {
		c.MaxRecoveries = 8
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = time.Millisecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = 100 * time.Millisecond
	}
	if c.WAL == nil {
		c.WAL = wal.NewMemStore()
	}
	if c.Checkpoints == nil {
		c.Checkpoints = NewMemCheckpointStore()
	}
	if c.sleep == nil {
		c.sleep = time.Sleep
	}
	return c
}

// ServiceState is the supervisor's serving state.
type ServiceState int

// Service states.
const (
	// StateHealthy: full read/write service.
	StateHealthy ServiceState = iota
	// StateDegraded: recovery budget exhausted; reads are served from the
	// last successful restore, writes fail with ErrUnrecoverable.
	StateDegraded
	// StateFailed: fail-stop; every operation returns ErrUnrecoverable.
	StateFailed
	// StateClosed: Close completed.
	StateClosed
	// stateKilled: crash-injected death (chaos harness only).
	stateKilled
)

// String implements fmt.Stringer.
func (s ServiceState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateFailed:
		return "failed"
	case StateClosed:
		return "closed"
	case stateKilled:
		return "killed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ServiceStats summarizes a Service's activity. All counters are
// cumulative over the service's lifetime (recoveries included).
type ServiceStats struct {
	// Reads/Writes/Batches count acknowledged operations.
	Reads   uint64
	Writes  uint64
	Batches uint64
	// Overloaded counts admissions rejected under BackpressureReject.
	Overloaded uint64
	// Recoveries counts successful supervised restores; ReplayedOps the
	// journal records replayed across them. FailedRecoveries counts
	// restore attempts that themselves failed (and were retried or gave
	// up, per the budget).
	Recoveries       uint64
	FailedRecoveries uint64
	ReplayedOps      uint64
	// Checkpoints counts committed checkpoints (journal truncations).
	Checkpoints uint64
	// WALRecords counts journal records appended; WALSyncs the
	// durability barriers issued for them. One sync covers a whole
	// dispatch window, so WALSyncs/WALRecords is the amortization group
	// commit buys (1.0 means one sync per record).
	WALRecords uint64
	WALSyncs   uint64
	// Groups counts dispatch windows served on the healthy path, a
	// window of one included; GroupedOps the requests they carried.
	Groups     uint64
	GroupedOps uint64
	// GroupSizes histograms the window sizes into buckets of
	// 1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, 65–128, and 129+ requests.
	GroupSizes [9]uint64
	// Pipeline is always zero: nothing writes it since the pipelined
	// access engine was removed.
	//
	// Deprecated: it remains only for the pathoram.stall_ms and
	// pathoram.seam_us metrics of perfbench, which read it and so also
	// read zero. It goes when they do.
	Pipeline PipelineStats
	// Storage aggregates the storage-tier counters (RAM tier, remote,
	// retry, scrub) across every device this service has owned,
	// recoveries included. Zero unless DeviceConfig.Storage configures
	// the corresponding layer.
	Storage StorageStats
	// State is the serving state at the time of the call.
	State ServiceState
}

// PipelineStats is the type of the deprecated ServiceStats.Pipeline,
// which is always zero.
type PipelineStats struct {
	FetchWaitNs        uint64
	EvictWaitNs        uint64
	WritebackWaitNs    uint64
	ServeWaitNs        uint64
	DepWaitNs          uint64
	WindowTurnarounds  uint64
	WindowTurnaroundNs uint64
}

// Delta returns s - prev.
func (s PipelineStats) Delta(prev PipelineStats) PipelineStats {
	return PipelineStats{
		FetchWaitNs:        s.FetchWaitNs - prev.FetchWaitNs,
		EvictWaitNs:        s.EvictWaitNs - prev.EvictWaitNs,
		WritebackWaitNs:    s.WritebackWaitNs - prev.WritebackWaitNs,
		ServeWaitNs:        s.ServeWaitNs - prev.ServeWaitNs,
		DepWaitNs:          s.DepWaitNs - prev.DepWaitNs,
		WindowTurnarounds:  s.WindowTurnarounds - prev.WindowTurnarounds,
		WindowTurnaroundNs: s.WindowTurnaroundNs - prev.WindowTurnaroundNs,
	}
}

// groupSizeBucket maps a window size to its GroupSizes histogram slot.
func groupSizeBucket(n int) int {
	if n <= 1 {
		return 0
	}
	b := 1
	for top := 2; n > top && b < 8; b++ {
		top *= 2
	}
	return b
}

// svcReq is one admitted operation travelling the queue.
type svcReq struct {
	kind reqKind
	addr uint64
	data []byte
	ops  []BatchOp
	resp chan svcResp
}

type reqKind int

const (
	reqRead reqKind = iota
	reqWrite
	reqBatch
	reqCheckpoint
)

type svcResp struct {
	data  []byte
	batch [][]byte
	err   error
}

// Service is a goroutine-safe, self-healing front door over a Device.
//
// Concurrency: any number of goroutines may call Read/Write/Batch
// concurrently. Operations pass a bounded admission queue into a single
// supervisor goroutine that owns the device — ORAM serializes memory
// accesses by construction, so a single worker loses no parallelism and
// keeps the Device's single-goroutine contract by design.
//
// Durability: every write is appended to a write-ahead journal and made
// durable BEFORE it is applied, and acknowledged only after apply. The
// supervisor checkpoints the device periodically (client snapshot +
// medium backup) and truncates the journal only after the checkpoint is
// durable. An acknowledged write therefore survives any crash: it is in
// the newest checkpoint, or in the journal suffix replay applies on
// recovery.
//
// Self-healing: when the device poisons itself (storage failure
// surviving the retry budget, detected corruption, invariant violation),
// the supervisor restores the newest checkpoint, replays the journal
// suffix, and resumes — with exponential backoff, a fresh fault-schedule
// seed per attempt, and a bounded budget after which the service
// degrades to read-only (DegradedReads) or fail-stops, both with typed
// ErrUnrecoverable errors.
type Service struct {
	cfg ServiceConfig

	q       chan *svcReq
	closing chan struct{}
	done    chan struct{}
	close1  sync.Once
	closeRv error

	mu    sync.Mutex // guards stats, state, cause
	stats ServiceStats
	state ServiceState
	cause error // terminal cause (Degraded/Failed)

	// logMu serializes journal-store access with killed()'s hook
	// consultation: the chaos harness's kill hook tears the store
	// buffer, which must not interleave with an append, a sync or a
	// truncation. No holder of logMu may call killed().
	logMu sync.Mutex

	// Worker-owned (no locking): the device, journal, and checkpoint
	// bookkeeping are touched only by the supervisor goroutine after
	// NewService returns.
	dev        *Device
	log        *wal.Log
	ckptSeq    uint64
	sinceCkpt  int
	recoveries int          // consecutive, reset by a committed checkpoint
	faultEpoch uint64       // derives a fresh fault seed per restore
	sinceScrub int          // acked mutating ops since the last scrub slice
	storSeen   StorageStats // current device's storage counters already folded into stats

	// Group-commit scratch, reused every dispatch window so coalescing
	// allocates nothing in steady state.
	groupBuf []*svcReq
	liveBuf  []*svcReq
	recsBuf  []wal.Record
	opsBuf   []BatchOp
	spanBuf  []reqSpan
}

// reqSpan is one request's slice [start, end) of a group's combined
// Device.Batch operation list.
type reqSpan struct{ start, end int }

// NewService builds the supervised service. If cfg.Checkpoints already
// holds a checkpoint (a previous incarnation crashed), the service first
// recovers: it restores the checkpoint's medium backup and client
// snapshot, replays the journal suffix from cfg.WAL, commits a fresh
// checkpoint, and only then starts serving. Otherwise it creates a new
// device and commits the initial (empty) checkpoint so a recovery point
// always exists.
func NewService(cfg ServiceConfig) (*Service, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Device.Validate(); err != nil {
		return nil, err
	}
	s := &Service{
		cfg:     cfg,
		q:       make(chan *svcReq, cfg.QueueDepth),
		closing: make(chan struct{}),
		done:    make(chan struct{}),
	}
	log, recs, err := wal.Open(cfg.WAL)
	if err != nil {
		return nil, err
	}
	s.log = log
	ck, ok, err := cfg.Checkpoints.Load()
	if err != nil {
		return nil, fmt.Errorf("forkoram: service checkpoint load: %w", err)
	}
	if ok {
		// Cold-start recovery over the surviving artifacts, retried with a
		// fresh fault epoch per attempt — a transient storage fault during
		// replay must not make the service unconstructible. The journal may
		// have been truncated at the checkpoint, so the sequence clock is
		// raised past it: new records have to outnumber ck.Seq or the
		// replay filter would skip them on the next recovery.
		var rerr error
		for attempt := 0; attempt <= coldStartRetries(cfg.MaxRecoveries); attempt++ {
			if rerr = s.restoreFrom(ck, recs); rerr == nil || errors.Is(rerr, errKilled) {
				break
			}
			s.bump(func(t *ServiceStats) { t.FailedRecoveries++ })
			cfg.sleep(s.backoff(attempt + 1))
		}
		if rerr != nil {
			return nil, rerr
		}
		s.log.Advance(ck.Seq)
		// Re-anchor so the journal cannot grow without bound across
		// repeated crashes. A checkpoint exists, so this commit is
		// supervised like any steady-state one.
		if err := s.commitCheckpoint(); err != nil {
			return nil, err
		}
	} else {
		// Fresh service: build the device and commit its first recovery
		// point. There is no checkpoint to supervise against yet, so a
		// failed initial snapshot is retried with a rebuilt device on a
		// fresh fault epoch instead.
		var lastErr error
		for attempt := 0; attempt <= coldStartRetries(cfg.MaxRecoveries); attempt++ {
			d, err := NewDevice(s.epochDeviceConfig())
			if err != nil {
				return nil, err // config error: retrying cannot help
			}
			s.armDevice(d)
			snap, err := d.Snapshot()
			if err == nil {
				lastErr = s.persistCheckpoint(snap)
				break
			}
			lastErr = err
			if errors.Is(err, errKilled) {
				break // crash injection, not a fault to retry through
			}
			s.faultEpoch++
			s.bump(func(t *ServiceStats) { t.FailedRecoveries++ })
			cfg.sleep(s.backoff(attempt + 1))
		}
		if lastErr != nil {
			return nil, lastErr
		}
	}
	go s.run()
	return s, nil
}

// coldStartRetries clamps the recovery budget for NewService's loops:
// even a spent budget (MaxRecoveries < 0, used by tests to make the
// first in-service poisoning terminal) gets exactly one cold-start
// attempt — zero attempts would mean no device at all.
func coldStartRetries(maxRecoveries int) int {
	if maxRecoveries < 0 {
		return 0
	}
	return maxRecoveries
}

// epochDeviceConfig returns the device config with the fault schedule
// seed re-derived for the current epoch, so a rebuilt device never
// replays the exact injector stream that just failed.
func (s *Service) epochDeviceConfig() DeviceConfig {
	dc := s.cfg.Device
	if dc.Faults != nil && s.faultEpoch > 0 {
		fc := *dc.Faults
		fc.Seed = rng.SeedAt(fc.Seed, 1000+s.faultEpoch)
		dc.Faults = &fc
	}
	if dc.Storage.Remote != nil && s.faultEpoch > 0 {
		// Same reasoning for the simulated remote's transient schedule: a
		// rebuilt device must not hit the identical fault stream again.
		rc := *dc.Storage.Remote
		rc.Seed = rng.SeedAt(rc.Seed, 2000+s.faultEpoch)
		dc.Storage.Remote = &rc
	}
	return dc
}

// Read returns the contents of the block at addr. Safe for concurrent
// use. ctx governs admission and waiting: once the operation is
// dequeued it runs to completion even if ctx expires (the result is
// then discarded). A nil ctx means context.Background().
func (s *Service) Read(ctx context.Context, addr uint64) ([]byte, error) {
	r, err := s.do(ctx, &svcReq{kind: reqRead, addr: addr})
	return r.data, err
}

// Write durably replaces the contents of the block at addr; data must be
// exactly BlockSize bytes. When Write returns nil the write is
// acknowledged: it is journaled durably, applied, and will survive any
// crash the checkpoint/journal machinery can recover from. On error the
// write may or may not have been applied (ctx expiry and crash errors
// leave it in flight; validation errors guarantee it was not).
func (s *Service) Write(ctx context.Context, addr uint64, data []byte) error {
	_, err := s.do(ctx, &svcReq{kind: reqWrite, addr: addr, data: data})
	return err
}

// Batch executes ops as the Device would (Fork variant: admitted
// together into the label queue so the scheduler can merge overlapping
// paths), with the same durability contract as Write for every write op.
// Results are positional: payloads for reads, nil for writes.
func (s *Service) Batch(ctx context.Context, ops []BatchOp) ([][]byte, error) {
	r, err := s.do(ctx, &svcReq{kind: reqBatch, ops: ops})
	return r.batch, err
}

// Checkpoint forces a checkpoint now (quiescing the device first) and
// truncates the journal once it is durable.
func (s *Service) Checkpoint(ctx context.Context) error {
	_, err := s.do(ctx, &svcReq{kind: reqCheckpoint})
	return err
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() ServiceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.State = s.state
	return st
}

// State returns the current serving state.
func (s *Service) State() ServiceState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Close stops admission, drains every in-flight and queued operation,
// commits a final checkpoint (when the service is still healthy), and
// stops the supervisor. Safe to call multiple times; concurrent
// operations that lose the race fail with ErrClosed.
func (s *Service) Close() error {
	s.close1.Do(func() {
		close(s.closing)
		<-s.done
		s.mu.Lock()
		if s.state == StateHealthy || s.state == StateDegraded {
			s.state = StateClosed
		}
		s.mu.Unlock()
	})
	return s.closeRv
}

// do admits one request and waits for its response.
func (s *Service) do(ctx context.Context, req *svcReq) (svcResp, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.admit(ctx, req); err != nil {
		return svcResp{}, err
	}
	return s.await(ctx, req)
}

// admit enqueues req on the admission queue; a nil return means the run
// loop will answer it on req.resp.
func (s *Service) admit(ctx context.Context, req *svcReq) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	req.resp = make(chan svcResp, 1)
	if s.cfg.Backpressure == BackpressureReject {
		select {
		case s.q <- req:
		case <-s.closing:
			return ErrClosed
		case <-s.done:
			// Supervisor gone (crash-injected death): the queue would
			// swallow the request forever.
			return s.deadErr()
		case <-ctx.Done():
			return ctx.Err()
		default:
			s.mu.Lock()
			s.stats.Overloaded++
			s.mu.Unlock()
			return ErrOverloaded
		}
	} else {
		select {
		case s.q <- req:
		case <-s.closing:
			return ErrClosed
		case <-s.done:
			return s.deadErr()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// await waits for the response to an admitted request.
func (s *Service) await(ctx context.Context, req *svcReq) (svcResp, error) {
	select {
	case r := <-req.resp:
		return r, r.err
	case <-s.done:
		// The worker may have answered and then exited; the buffered
		// response wins over the death notice.
		select {
		case r := <-req.resp:
			return r, r.err
		default:
		}
		return svcResp{}, s.deadErr()
	case <-ctx.Done():
		// The operation stays in flight and its (buffered) response is
		// discarded; for writes it may still be applied and journaled.
		return svcResp{}, ctx.Err()
	}
}

// deadErr is the admission error once the supervisor goroutine has
// exited: ErrClosed after an orderly Close, errKilled after an injected
// crash.
func (s *Service) deadErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == stateKilled {
		return errKilled
	}
	return ErrClosed
}

// run is the supervisor goroutine: it owns the device, serves the
// admission queue, journals and applies operations, checkpoints, and
// heals the device when it fail-stops. Each iteration drains the queue
// into one dispatch window (see gather), so a backlog is group-committed
// instead of paying one sync per operation.
func (s *Service) run() {
	defer close(s.done)
	for {
		select {
		case req := <-s.q:
			if !s.dispatch(req) {
				s.drainKilled()
				return
			}
		case <-s.closing:
			// Drain: everything admitted before Close completes is served.
			for {
				select {
				case req := <-s.q:
					if !s.dispatch(req) {
						s.drainKilled()
						return
					}
					continue
				default:
				}
				break
			}
			if s.State() == StateHealthy {
				s.closeRv = s.commitCheckpoint()
			}
			return
		}
	}
}

// dispatch serves first. On a healthy service it coalesces first with
// whatever else the queue holds and group-commits the window, a window
// of one included; a checkpoint that opens its window, and every
// request once the service is degraded or failed, goes to serve alone.
// Reports false when a crash injection killed the service.
func (s *Service) dispatch(first *svcReq) bool {
	var alive bool
	if first.kind == reqCheckpoint || s.State() != StateHealthy {
		alive = s.serve(first)
	} else {
		g := s.gather(first)
		alive = s.serveGroup(g)
		// The scratch backing is reused; drop request references so a
		// window cannot pin payloads (or response channels) past its
		// dispatch.
		clear(g)
	}
	if alive {
		alive = s.maybeScrub()
	}
	s.foldStorageStats()
	return alive
}

// maybeScrub runs one background scrub slice when the cadence is due.
// An unrepairable frame poisons the device; the supervisor heals it
// like any other storage failure (restore + replay). Reports false when
// crash injection killed the service.
func (s *Service) maybeScrub() bool {
	if s.cfg.ScrubEvery <= 0 || s.sinceScrub < s.cfg.ScrubEvery || s.State() != StateHealthy {
		return true
	}
	s.sinceScrub = 0
	if s.killed(CrashMidScrub) {
		return false
	}
	if _, err := s.dev.ScrubSlice(s.cfg.ScrubFrames); err != nil {
		if s.dev.Poisoned() == nil {
			return true // device busy/closed: skip this slice
		}
		if rerr := s.supervise(err); rerr != nil {
			// errKilled: crash injection; otherwise the budget is spent and
			// the state is already Degraded/Failed — either way the worker
			// keeps running (or dying) exactly like a failed serve.
			return !errors.Is(rerr, errKilled)
		}
	}
	return true
}

// gather builds one dispatch window of a healthy service: the first
// request plus up to QueueDepth-1 more drained without blocking. A
// checkpoint request terminates the window as a trailing barrier — it
// commits after the group it joined, never reordered before other
// requests.
func (s *Service) gather(first *svcReq) []*svcReq {
	g := append(s.groupBuf[:0], first)
	defer func() { s.groupBuf = g[:0] }()
	if s.cfg.QueueDepth <= 1 {
		return g
	}
	// First-request linger: clients admitted in the same instant as
	// first may not have reached the queue yet (their sends readied this
	// goroutine before their own enqueues ran). A scheduler yield only
	// covers the single-P case; an explicit bounded wait lets a burst
	// form the window on any host, and only a dry queue ever pays it.
	if s.cfg.BurstLinger > 0 && len(s.q) == 0 {
		timer := time.NewTimer(s.cfg.BurstLinger)
		select {
		case req := <-s.q:
			g = append(g, req)
			if req.kind == reqCheckpoint {
				timer.Stop()
				return g
			}
		case <-timer.C:
		case <-s.closing:
		}
		timer.Stop()
	}
	for len(g) < s.cfg.QueueDepth {
		select {
		case req := <-s.q:
			g = append(g, req)
			if req.kind == reqCheckpoint {
				return g
			}
			continue
		default:
		}
		break
	}
	return g
}

// recordGroup accounts one dispatch window of n requests.
func (s *Service) recordGroup(n int) {
	b := groupSizeBucket(n)
	s.bump(func(t *ServiceStats) {
		t.Groups++
		t.GroupedOps += uint64(n)
		t.GroupSizes[b]++
	})
}

// serveGroup commits one dispatch window: the active requests are
// group-committed (one journal sync covers every write in the window,
// one Device.Batch serves the window so Fork's scheduler merges across
// it), then a trailing checkpoint barrier — if one closed the window —
// commits after the group it joined. The window's first request is
// never a checkpoint (see dispatch), so the group is never empty.
func (s *Service) serveGroup(g []*svcReq) bool {
	active := g
	var ckpt *svcReq
	if g[len(g)-1].kind == reqCheckpoint {
		ckpt = g[len(g)-1]
		active = g[:len(g)-1]
	}
	s.recordGroup(len(active))
	if !s.commitGroup(active) {
		if ckpt != nil {
			ckpt.resp <- svcResp{err: errKilled}
		}
		return false
	}
	if ckpt != nil {
		// serve handles every state the group may have left behind
		// (healthy, degraded after an exhausted recovery budget, failed).
		return s.serve(ckpt)
	}
	return true
}

// commitGroup is the group-commit pipeline for one window of non-
// checkpoint requests:
//
//	validate each -> journal all writes in ONE frame batch -> ONE sync
//	-> apply the whole window via ONE Device.Batch -> distribute.
//
// It is a healthy service's only dispatch path, a window of one
// included, so every journaled write meets the same kill sites and the
// same ack rule. Invalid requests are answered immediately and
// excluded, so one malformed op never poisons its neighbours. A write
// is acked only after the group's records are durable AND applied —
// ack ⇔ the group's sync happened. Reports false when a crash injection killed the
// service; every still-unanswered request is then answered errKilled.
func (s *Service) commitGroup(g []*svcReq) bool {
	live := s.liveBuf[:0]
	recs := s.recsBuf[:0]
	ops := s.opsBuf[:0]
	spans := s.spanBuf[:0]
	defer func() {
		// The scratch is reused across windows: drop every payload and
		// request reference so a window cannot pin client memory.
		for i := range live {
			live[i] = nil
		}
		for i := range recs {
			recs[i].Payload = nil
		}
		for i := range ops {
			ops[i].Data = nil
		}
		s.liveBuf, s.recsBuf = live[:0], recs[:0]
		s.opsBuf, s.spanBuf = ops[:0], spans[:0]
	}()

	// Validate before journaling: a malformed op must not enter the WAL
	// (replay would re-reject it forever), and Device.Batch validates the
	// combined op list wholesale, so anything invalid must be weeded out
	// here or it would fail the entire window.
	for _, req := range g {
		if err := s.validateReq(req); err != nil {
			req.resp <- svcResp{err: err}
			continue
		}
		live = append(live, req)
	}
	if len(live) == 0 {
		return true
	}

	// Journal: one frame batch, one sync, covering every write in the
	// window.
	for _, req := range live {
		switch req.kind {
		case reqWrite:
			recs = append(recs, wal.Record{Op: wal.OpWrite, Addr: req.addr, Payload: req.data})
		case reqBatch:
			for _, op := range req.ops {
				if op.Write {
					recs = append(recs, wal.Record{Op: wal.OpWrite, Addr: op.Addr, Payload: op.Data})
				}
			}
		}
	}
	if len(recs) > 0 {
		s.logMu.Lock()
		err := s.log.AppendGroup(recs)
		s.logMu.Unlock()
		if err != nil {
			return s.failGroup(live, err)
		}
		s.bump(func(t *ServiceStats) { t.WALRecords += uint64(len(recs)) })
		if s.killed(CrashAfterAppend) {
			s.killGroup(live)
			return false
		}
		s.logMu.Lock()
		err = s.log.Sync()
		s.logMu.Unlock()
		if err != nil {
			return s.failGroup(live, err)
		}
		s.bump(func(t *ServiceStats) { t.WALSyncs++ })
		if s.killed(CrashAfterSync) {
			s.killGroup(live)
			return false
		}
	}

	// Apply: concatenate the window into one Device.Batch so the Fork
	// scheduler's merge window spans every request in the group. A
	// one-op window reaches the engine as Device.Read or Write would,
	// Step-1 stash shortcut included (see Device.Batch).
	for _, req := range live {
		start := len(ops)
		switch req.kind {
		case reqRead:
			ops = append(ops, BatchOp{Addr: req.addr})
		case reqWrite:
			ops = append(ops, BatchOp{Addr: req.addr, Write: true, Data: req.data})
		case reqBatch:
			ops = append(ops, req.ops...)
		}
		spans = append(spans, reqSpan{start, len(ops)})
	}
	var out [][]byte
	for len(ops) > 0 {
		var err error
		out, err = s.dev.Batch(ops)
		if err == nil {
			break
		}
		if errors.Is(err, errKilled) {
			// Crash injection struck inside the window (the disk
			// medium's mid-bucket-write hook): the service dies here, it
			// does not heal — recovery happens on the next incarnation.
			s.killGroup(live)
			return false
		}
		if s.dev.Poisoned() == nil {
			// Unreachable by construction — every op was pre-validated —
			// but fail the window defensively rather than panic.
			return s.failGroup(live, err)
		}
		if rerr := s.supervise(err); rerr != nil {
			if errors.Is(rerr, errKilled) {
				s.killGroup(live)
				return false
			}
			for _, req := range live {
				req.resp <- svcResp{err: rerr}
			}
			return true
		}
		// Recovery replayed the group's journaled writes; re-running the
		// batch re-applies them idempotently and refreshes read results.
	}
	if s.killed(CrashAfterApply) {
		s.killGroup(live)
		return false
	}

	// Distribute by span and ack. Three-index slicing caps each batch
	// response at its own region of the combined result, so one client
	// appending to its result cannot reach a neighbour's. Each op is
	// counted before its ack is sent, so a client reading Stats() right
	// after its call returns always sees its own op.
	muts := 0
	for i, req := range live {
		sp := spans[i]
		switch req.kind {
		case reqRead:
			s.bump(func(t *ServiceStats) { t.Reads++ })
			req.resp <- svcResp{data: out[sp.start]}
		case reqWrite:
			s.bump(func(t *ServiceStats) { t.Writes++ })
			req.resp <- svcResp{}
			muts++
		case reqBatch:
			s.bump(func(t *ServiceStats) { t.Batches++ })
			req.resp <- svcResp{batch: out[sp.start:sp.end:sp.end]}
			muts++
		}
	}
	// Mutations advance the checkpoint clock; reads have nothing to
	// re-anchor.
	s.sinceCkpt += muts
	s.sinceScrub += muts
	if muts > 0 && s.sinceCkpt >= s.cfg.CheckpointEvery {
		if err := s.commitCheckpoint(); errors.Is(err, errKilled) {
			return false
		}
		// A failed periodic checkpoint is not fatal: the previous
		// checkpoint plus the (untruncated) journal still cover every
		// acknowledged write. The next interval retries.
	}
	return true
}

// validateReq applies Device.Read, Write and Batch's argument checks to
// one request, so nothing malformed enters the WAL and one bad request
// cannot fail its window's combined Device.Batch.
func (s *Service) validateReq(req *svcReq) error {
	switch req.kind {
	case reqRead:
		return s.dev.checkAddr(req.addr)
	case reqWrite:
		if err := s.dev.checkAddr(req.addr); err != nil {
			return err
		}
		if len(req.data) != s.dev.cfg.BlockSize {
			return fmt.Errorf("forkoram: payload %d bytes, want %d", len(req.data), s.dev.cfg.BlockSize)
		}
	case reqBatch:
		for i, op := range req.ops {
			if err := s.dev.checkAddr(op.Addr); err != nil {
				return fmt.Errorf("forkoram: batch op %d: %w", i, err)
			}
			if op.Write && len(op.Data) != s.dev.cfg.BlockSize {
				return fmt.Errorf("forkoram: batch op %d: payload %d bytes, want %d",
					i, len(op.Data), s.dev.cfg.BlockSize)
			}
		}
	}
	return nil
}

// failGroup heals the journal (see healJournal), then answers every
// live request with err — none were acked, so failing all is sound. The
// heal comes first, so a client that sees the error also sees the
// checkpoint that cleared it; a kill inside the heal answers errKilled.
func (s *Service) failGroup(live []*svcReq, err error) bool {
	alive := s.healJournal()
	if !alive {
		err = errKilled
	}
	for _, req := range live {
		req.resp <- svcResp{err: err}
	}
	return alive
}

// killGroup answers every still-pending request in a killed window.
func (s *Service) killGroup(live []*svcReq) {
	for _, req := range live {
		req.resp <- svcResp{err: errKilled}
	}
}

// drainKilled answers every queued request with errKilled after a
// crash injection, then lets the worker exit (simulated process death).
func (s *Service) drainKilled() {
	s.setState(stateKilled, errKilled)
	for {
		select {
		case req := <-s.q:
			req.resp <- svcResp{err: errKilled}
		case <-s.closing:
			return
		default:
			return
		}
	}
}

// serve handles a request outside a healthy window: a checkpoint that
// opens its window or closes a group, and every request once the
// service is degraded or failed. It reports false when a crash
// injection killed the service.
func (s *Service) serve(req *svcReq) bool {
	switch s.State() {
	case StateFailed:
		req.resp <- svcResp{err: s.terminalErr()}
		return true
	case StateDegraded:
		return s.serveDegraded(req)
	}
	err := s.commitCheckpoint()
	req.resp <- svcResp{err: err}
	return !errors.Is(err, errKilled)
}

// serveDegraded serves reads best-effort after the recovery budget is
// gone; anything mutating refuses with the terminal error.
func (s *Service) serveDegraded(req *svcReq) bool {
	if req.kind != reqRead {
		req.resp <- svcResp{err: s.terminalErr()}
		return true
	}
	out, err := s.dev.Read(req.addr)
	if err != nil && s.dev.Poisoned() != nil {
		// One restore attempt per incident keeps degraded reads alive
		// under transient trouble without ever looping unbounded.
		if rerr := s.recoverOnce(); rerr != nil {
			if errors.Is(rerr, errKilled) {
				req.resp <- svcResp{err: errKilled}
				return false
			}
			s.setState(StateFailed, &UnrecoverableError{Cause: rerr})
			req.resp <- svcResp{err: s.terminalErr()}
			return true
		}
		s.bump(func(t *ServiceStats) { t.Recoveries++ })
		out, err = s.dev.Read(req.addr)
	}
	if err == nil {
		s.bump(func(t *ServiceStats) { t.Reads++ })
	}
	req.resp <- svcResp{data: out, err: err}
	return true
}

// supervise handles a device fail-stop: bounded, backed-off recovery
// attempts. It returns nil once the device is healed (journal fully
// replayed), or the terminal error after the budget is exhausted (the
// service is then Degraded or Failed), or errKilled under crash
// injection.
func (s *Service) supervise(cause error) error {
	// The poison marker wraps the triggering fault, so carrying it as the
	// cause keeps both *PoisonedError and the storage error extractable
	// from the supervisor's terminal error chain.
	if p := s.dev.Poisoned(); p != nil {
		cause = p
	}
	if errors.Is(cause, errKilled) {
		// Crash injection (e.g. a mid-bucket-write kill poisoning the
		// device) is simulated process death, not a fault to heal in
		// place: recovery happens on the next incarnation.
		return errKilled
	}
	for {
		s.recoveries++
		if s.recoveries > s.cfg.MaxRecoveries {
			return s.giveUp(cause)
		}
		s.cfg.sleep(s.backoff(s.recoveries))
		err := s.recoverOnce()
		if err == nil {
			s.bump(func(t *ServiceStats) { t.Recoveries++ })
			return nil
		}
		if errors.Is(err, errKilled) {
			return err
		}
		s.bump(func(t *ServiceStats) { t.FailedRecoveries++ })
		cause = err
	}
}

// healJournal re-establishes a usable journal after a store append or
// sync failure latched it broken (wal.ErrBroken): the failed bytes may
// sit partially in the log, and any record appended behind them would
// be invisible to replay — so the log refuses all appends, meaning no
// write can be acknowledged, until the suspect bytes are durably gone.
// Committing a checkpoint is exactly that cure: it captures every
// acknowledged write in a durable recovery point and truncates the
// journal behind it, which clears the latch. A failed heal is tolerable
// — writes keep failing fast with ErrBroken and the next mutation
// retries the checkpoint; reads are unaffected throughout. Reports
// false only when a crash injection killed the service inside the
// checkpoint.
func (s *Service) healJournal() bool {
	return !errors.Is(s.commitCheckpoint(), errKilled)
}

// backoff returns the exponential backoff delay for the n-th consecutive
// recovery attempt.
func (s *Service) backoff(n int) time.Duration {
	d := s.cfg.BackoffBase
	for i := 1; i < n; i++ {
		d *= 2
		if d >= s.cfg.BackoffMax {
			return s.cfg.BackoffMax
		}
	}
	if d > s.cfg.BackoffMax {
		d = s.cfg.BackoffMax
	}
	return d
}

// giveUp transitions to Degraded (one final restore, reads only) or
// Failed, and returns the terminal error.
func (s *Service) giveUp(cause error) error {
	if s.cfg.DegradedReads {
		if err := s.recoverOnce(); err == nil {
			s.setState(StateDegraded, &UnrecoverableError{Cause: cause})
			return s.terminalErr()
		} else if errors.Is(err, errKilled) {
			return err
		}
	}
	s.setState(StateFailed, &UnrecoverableError{Cause: cause})
	return s.terminalErr()
}

// recoverOnce performs one full restore: newest checkpoint loaded from
// the durable store, medium backup re-applied, client snapshot restored
// over it, journal suffix replayed. On success s.dev is the healed
// device and every acknowledged write is present.
func (s *Service) recoverOnce() error {
	ck, ok, err := s.cfg.Checkpoints.Load()
	if err != nil {
		return fmt.Errorf("forkoram: recovery checkpoint load: %w", err)
	}
	if !ok {
		return fmt.Errorf("forkoram: recovery without a checkpoint")
	}
	s.logMu.Lock()
	data, err := s.cfg.WAL.Load()
	s.logMu.Unlock()
	if err != nil {
		return fmt.Errorf("forkoram: recovery journal load: %w", err)
	}
	recs, _ := wal.DecodeAll(data)
	if err := s.restoreFrom(ck, recs); err != nil {
		return err
	}
	s.logMu.Lock()
	s.log.Advance(ck.Seq)
	s.logMu.Unlock()
	return nil
}

// restoreFrom rebuilds the device from a checkpoint and replays the
// journal records beyond it. Shared by in-process recovery and
// cold-start (NewService over surviving stores).
func (s *Service) restoreFrom(ck *Checkpoint, recs []wal.Record) error {
	s.faultEpoch++
	// A host device supplies geometry, a fresh medium to install the
	// backup into, and the process-local hooks (Observer, fault schedule)
	// UnmarshalSnapshot re-binds.
	host, err := NewDevice(s.cfg.Device)
	if err != nil {
		return fmt.Errorf("forkoram: recovery host device: %w", err)
	}
	restoreMedium(host.store, host.tr, ck.Medium)
	snap, err := UnmarshalSnapshot(ck.Snapshot, host)
	if err != nil {
		return fmt.Errorf("forkoram: recovery snapshot: %w", err)
	}
	if snap.cfg.Faults != nil {
		// Replaying the identical fault schedule from the identical state
		// would deterministically fail the same way forever; each restore
		// derives a fresh injector stream (the chaos harness does the same).
		fc := *snap.cfg.Faults
		fc.Seed = rng.SeedAt(fc.Seed, 1000+s.faultEpoch)
		snap.cfg.Faults = &fc
	}
	if snap.cfg.Storage.Remote != nil {
		rc := *snap.cfg.Storage.Remote
		rc.Seed = rng.SeedAt(rc.Seed, 2000+s.faultEpoch)
		snap.cfg.Storage.Remote = &rc
	}
	d, err := RestoreDevice(snap)
	if err != nil {
		return fmt.Errorf("forkoram: recovery restore: %w", err)
	}
	if s.killed(CrashMidRestore) {
		return errKilled
	}
	replayed := uint64(0)
	for _, r := range recs {
		if r.Seq <= ck.Seq {
			continue // already inside the checkpoint; replay is idempotent anyway
		}
		if r.Op != wal.OpWrite {
			return fmt.Errorf("forkoram: recovery journal op %d unknown", r.Op)
		}
		if err := d.Write(r.Addr, r.Payload); err != nil {
			return fmt.Errorf("forkoram: recovery replay seq %d: %w", r.Seq, err)
		}
		replayed++
	}
	s.armDevice(d)
	s.bump(func(t *ServiceStats) { t.ReplayedOps += replayed })
	return nil
}

// armDevice installs d as the service's device: on a disk medium the
// chaos kill hook is wired into the frame writes, and the storage-stat
// high-water mark resets — a fresh device's counters start at zero,
// while ServiceStats.Storage keeps accumulating across replacements.
func (s *Service) armDevice(d *Device) {
	if s.cfg.crashHook != nil {
		// With a disk medium, crash injection can strike inside a frame
		// write, optionally leaving a torn (CRC-detectable) tail.
		// The hook lives on the shared Disk handle; assembleDevice clears
		// it on every new device, so recovery's restore+replay runs
		// un-killable and arming re-installs it here, after replay.
		if disk, ok := d.store.(*storage.Disk); ok {
			disk.SetCrashWrite(func(frameLen int) (int, error) {
				if s.killed(CrashMidBucketWrite) {
					tear := 0
					if s.cfg.crashTear != nil {
						tear = s.cfg.crashTear(frameLen)
					}
					return tear, errKilled
				}
				return 0, nil
			})
		}
	}
	s.dev = d
	s.storSeen = StorageStats{}
}

// foldStorageStats rolls the device's storage-tier counters accumulated
// since the last fold into the service statistics. Called once per
// dispatch window (worker goroutine; storSeen is worker-owned).
func (s *Service) foldStorageStats() {
	if s.dev == nil {
		return
	}
	cur := s.dev.storageStats()
	delta := cur.Delta(s.storSeen)
	if delta.zero() {
		return
	}
	s.storSeen = cur
	s.bump(func(t *ServiceStats) { t.Storage.Add(delta) })
}

// commitCheckpoint quiesces the device, persists {snapshot, medium
// backup, seq}, and truncates the journal only once the checkpoint is
// durable. A committed checkpoint resets the recovery budget: the
// service made real forward progress.
func (s *Service) commitCheckpoint() error {
	var snap *Snapshot
	for {
		var err error
		snap, err = s.dev.Snapshot()
		if err == nil {
			break
		}
		if s.dev.Poisoned() == nil {
			return err
		}
		if rerr := s.supervise(err); rerr != nil {
			return rerr
		}
	}
	return s.persistCheckpoint(snap)
}

// persistCheckpoint durably saves a quiescent snapshot + medium backup
// and truncates the journal behind it.
func (s *Service) persistCheckpoint(snap *Snapshot) error {
	data, err := snap.MarshalBinary()
	if err != nil {
		return fmt.Errorf("forkoram: checkpoint marshal: %w", err)
	}
	s.logMu.Lock()
	seq := s.log.LastSeq()
	s.logMu.Unlock()
	ck := &Checkpoint{Seq: seq, Snapshot: data, Medium: cloneMedium(s.dev)}
	if err := s.cfg.Checkpoints.Save(ck); err != nil {
		return fmt.Errorf("forkoram: checkpoint save: %w", err)
	}
	if s.killed(CrashAfterCheckpointSave) {
		return errKilled
	}
	s.logMu.Lock()
	err = s.log.Truncate()
	s.logMu.Unlock()
	if err != nil {
		return err
	}
	s.ckptSeq = ck.Seq
	s.sinceCkpt = 0
	s.recoveries = 0
	s.bump(func(t *ServiceStats) { t.Checkpoints++ })
	return nil
}

// killed consults the crash hook at one CrashPoint. The consultation
// runs under logMu: the chaos harness's hook tears the journal store's
// buffer at kill time.
func (s *Service) killed(p CrashPoint) bool {
	if s.cfg.crashHook == nil {
		return false
	}
	s.logMu.Lock()
	hit := s.cfg.crashHook(p)
	s.logMu.Unlock()
	if !hit {
		return false
	}
	s.setState(stateKilled, errKilled)
	return true
}

func (s *Service) setState(st ServiceState, cause error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case StateHealthy:
		s.state, s.cause = st, cause
	case StateDegraded:
		// Degraded can only worsen: fail-stop or crash-injected death.
		if st == StateFailed || st == stateKilled {
			s.state, s.cause = st, cause
		}
	}
}

func (s *Service) terminalErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cause != nil {
		return s.cause
	}
	return ErrUnrecoverable
}

func (s *Service) bump(f func(*ServiceStats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}
