package forkoram

import (
	"errors"
	"fmt"
	"sync/atomic"

	"forkoram/internal/block"
	"forkoram/internal/faults"
	"forkoram/internal/fork"
	"forkoram/internal/mac"
	"forkoram/internal/pathoram"
	"forkoram/internal/posmap"
	"forkoram/internal/recursion"
	"forkoram/internal/rng"
	"forkoram/internal/stash"
	"forkoram/internal/storage"
	"forkoram/internal/tree"
)

// ErrPoisoned marks a Device that suffered an unrecovered failure:
// a storage error survived the retry budget, or an access died midway
// (position map remapped, request never served). Rather than continue
// from half-applied state — which could silently violate read-your-writes
// or the Path ORAM invariant — the device fail-stops: every subsequent
// operation returns an error wrapping ErrPoisoned (and the original
// cause). Recover by restoring a Snapshot taken before the failure.
var ErrPoisoned = errors.New("forkoram: device poisoned by unrecovered failure")

// ErrConcurrentAccess is returned when two goroutines enter a Device
// operation at the same time. A raw Device is single-goroutine by
// contract (see the Device doc); rather than silently interleave stash
// and position-map updates — which corrupts state in ways no later check
// can untangle — every entry point holds an atomic busy flag and the
// loser fails fast with this error, before any state is touched. The
// rejected operation is not counted in Stats and does not poison the
// device. Use Service for a goroutine-safe front door.
var ErrConcurrentAccess = errors.New("forkoram: concurrent access to Device (single-goroutine contract)")

// ErrTransient and ErrCorrupt re-export the storage error taxonomy so
// consumers outside this module can classify device failures with
// errors.Is: transient faults may succeed on retry (the device already
// retried within its budget before surfacing one), corruption means the
// medium or its integrity check is wrong. See DESIGN.md §8.
var (
	ErrTransient = storage.ErrTransient
	ErrCorrupt   = storage.ErrCorrupt
)

// PoisonedError is the error returned by operations on a poisoned
// Device. It wraps both ErrPoisoned and the original failure, so
// errors.Is(err, ErrPoisoned) and cause inspection both work.
type PoisonedError struct {
	// Cause is the failure that poisoned the device.
	Cause error
}

// Error implements error.
func (e *PoisonedError) Error() string {
	return fmt.Sprintf("forkoram: device poisoned (cause: %v)", e.Cause)
}

// Is reports ErrPoisoned.
func (e *PoisonedError) Is(target error) bool { return target == ErrPoisoned }

// Unwrap exposes the original failure for errors.Is/As dispatch.
func (e *PoisonedError) Unwrap() error { return e.Cause }

// Variant selects the controller algorithm of a Device.
type Variant int

// Device variants.
const (
	// Baseline is classic Path ORAM: every access reads and rewrites one
	// full root-to-leaf path.
	Baseline Variant = iota
	// Fork is the paper's Fork Path engine: consecutive accesses merge
	// their overlapping path segments, a label queue schedules pending
	// requests by overlap degree, and pending dummies are replaced by
	// late-arriving real requests.
	Fork
)

// DeviceConfig configures an oblivious block store.
type DeviceConfig struct {
	// Blocks is the number of addressable blocks (addresses 0..Blocks-1).
	Blocks uint64
	// BlockSize is the payload size in bytes of each block (default 64).
	BlockSize int
	// Z is the bucket capacity (default 4).
	Z int
	// StashCapacity is the on-chip stash size in blocks (default 200).
	// Exceeding it is recorded in Stats, not fatal.
	StashCapacity int
	// QueueSize is the Fork variant's label queue size (default 8).
	// Large queues pay off under Batch use, where many real requests
	// pend. A lone synchronous request does not compete with the queue:
	// it replaces the pending dummy of the previous operation's held
	// access (see Device). Only the second and later requests of one
	// operation still compete with queue dummies on overlap, for
	// O(QueueSize) accesses at worst.
	QueueSize int
	// Key is the 16-byte AES key sealing buckets. Nil derives an
	// all-zero key (fine for experiments; supply your own otherwise).
	Key []byte
	// Seed makes the label randomness reproducible. Production use wants
	// a random seed; experiments want a fixed one.
	Seed uint64
	// Variant selects Baseline or Fork.
	Variant Variant
	// Integrity enables Merkle-tree verification over the stored bucket
	// ciphertexts (orthogonal to ORAM per the paper's §2.2, combinable
	// with it): every bucket read is verified against an on-chip root,
	// detecting tampering and replay of stale ciphertexts.
	Integrity bool
	// Retries bounds the controller's oblivious retry budget for
	// transient storage failures (storage.ErrTransient): up to Retries
	// additional attempts of the same bucket access before the device
	// fail-stops (poisons). 0 means pathoram.DefaultRetries; negative
	// disables retrying. Retries repeat an already-revealed bucket
	// access and are triggered by public storage behaviour, so they do
	// not change the adversary-visible access sequence.
	Retries int
	// Faults, when non-nil, interposes a deterministic fault injector
	// (internal/faults) between the controller and storage: transient
	// errors, dropped/torn writes, ciphertext bit-flips and stale-bucket
	// replays on the configured schedule. Testing and chaos hook; leave
	// nil in production. Corruption faults are reliably detected only
	// with Integrity enabled (payload-only corruption is invisible to
	// the plaintext plausibility checks).
	Faults *faults.Config
	// Storage selects and shapes the storage tiers under the controller:
	// a durable disk medium instead of the default in-memory one, a
	// simulated remote tier with latency/transients plus its retry
	// layer, and a write-through RAM tier pinning the treetop. See
	// StorageConfig. Like Observer and Faults, the live handles are
	// process-local: not serialized in snapshots, re-applied from the
	// host device on restore.
	Storage StorageConfig
	// Observer, when set, receives the bus-visible trace of every ORAM
	// tree traversal — exactly what an adversary probing the memory bus
	// sees (revealed leaf label plus bucket read/write sequences), and
	// additionally the dummy flag (NOT adversary-visible; provided for
	// analysis). Used by security tests and examples/adversary.
	//
	// Accesses served entirely from the stash (Step-1 shortcut) generate
	// no memory traffic and are therefore NOT reported: the Observer
	// sees exactly what the bus sees, and a stash hit is invisible on
	// the bus by construction. DeviceStats.RealAccesses counts only
	// tree traversals for the same reason.
	//
	// A traversal is reported once its refill completes. Under the Fork
	// variant the one that served a call's last request is held (see
	// Device), so it is reported during the next call, or by Stats,
	// Snapshot, Scrub or ScrubSlice.
	Observer func(label uint64, dummy bool, readBuckets, writeBuckets []uint64)
}

func (c DeviceConfig) withDefaults() DeviceConfig {
	if c.BlockSize == 0 {
		c.BlockSize = 64
	}
	if c.Z == 0 {
		c.Z = 4
	}
	if c.StashCapacity == 0 {
		c.StashCapacity = 200
	}
	if c.QueueSize == 0 {
		c.QueueSize = 8
	}
	if c.Key == nil {
		c.Key = make([]byte, 16)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Validate checks the configuration.
func (c DeviceConfig) Validate() error {
	c = c.withDefaults()
	if c.Blocks == 0 {
		return fmt.Errorf("forkoram: Blocks must be positive")
	}
	if c.BlockSize <= 0 || c.Z <= 0 {
		return fmt.Errorf("forkoram: BlockSize and Z must be positive")
	}
	if len(c.Key) != 16 {
		return fmt.Errorf("forkoram: Key must be 16 bytes")
	}
	return nil
}

// DeviceStats summarizes a Device's activity.
type DeviceStats struct {
	Reads         uint64
	Writes        uint64
	RealAccesses  uint64 // ORAM tree traversals serving requests
	DummyAccesses uint64 // Fork variant's inserted dummy traversals
	BucketReads   uint64 // buckets fetched from (encrypted) storage
	BucketWrites  uint64
	Stash         stash.Stats
	// PathLength is the number of buckets on a full path (L+1).
	PathLength uint
	// Storage reports the storage-tier layers' activity (zero-valued
	// for layers not configured).
	Storage StorageStats
}

// Device is an oblivious block store: external observers of its backing
// storage (including anyone who can read the Device's memory traffic)
// learn nothing about which addresses are accessed beyond the total
// request count.
//
// A Device is not safe for concurrent use: ORAM serializes accesses by
// construction, so its operations are strictly single-goroutine. The
// contract is enforced cheaply — every operation holds an atomic busy
// flag, and a concurrent entry fails fast with ErrConcurrentAccess
// instead of silently corrupting stash or position-map state. Wrap a
// Device in a Service for a goroutine-safe, self-healing front door, or
// in your own mutex if you only need serialization.
//
// Under the Fork variant an operation returns with its last access held
// open: the access has read its path and served its request, but its
// refill waits. The next operation admits its requests first, so its
// first request replaces the held access's pending dummy (the paper's
// dummy-request replacing, §3.3) and the refill stops at the fork point
// the two paths share; a lone request then costs about one traversal.
// Stats, Snapshot, Scrub and ScrubSlice complete the held refill, with
// its pending dummy, before anything else.
type Device struct {
	cfg      DeviceConfig
	tr       tree.Tree
	store    storage.Medium // base medium (Mem or Disk)
	remote   *storage.Remote
	sretry   *storage.Retry
	verifier *storage.Integrity
	tier     *mac.Treetop // write-through RAM tier (nil unless configured)
	inj      *faults.Injector
	ctl      *pathoram.Controller
	pos      *posmap.Map
	eng      *fork.Engine // Fork variant only
	base     *pathoram.ORAM

	nextID   uint64
	reads    uint64
	writes   uint64
	poisoned *PoisonedError

	// scrubCursor is the background scrub walker's position in the node
	// space; scrubStats accumulates what every ScrubSlice found.
	scrubCursor uint64
	scrubStats  storage.ScrubStats

	// held is the Fork access that served the previous operation's last
	// request: begun but not refilled, so its pending dummy stays
	// replaceable (see the Device doc). Nil when no access is held; a
	// poisoned device drops it.
	held *fork.Access

	// busy is the cheap concurrent-misuse guard: CAS-acquired by every
	// public operation, so a second goroutine entering mid-operation gets
	// ErrConcurrentAccess instead of corrupting stash/position-map state.
	busy atomic.Int32
}

// enter acquires the single-goroutine guard; leave releases it.
func (d *Device) enter() error {
	if !d.busy.CompareAndSwap(0, 1) {
		return ErrConcurrentAccess
	}
	return nil
}

func (d *Device) leave() { d.busy.Store(0) }

// planDeviceTree sizes the device tree for cfg at ~50% utilization:
// Z * 2^L >= Blocks. cfg must already carry its defaults.
func planDeviceTree(cfg DeviceConfig) (tree.Tree, error) {
	_, tr, err := recursion.Plan(recursion.Config{
		DataBlocks:     cfg.Blocks,
		LabelsPerBlock: 2,          // no recursion in the device facade:
		OnChipEntries:  cfg.Blocks, // the whole position map stays on-chip
		Z:              cfg.Z,
		PayloadSize:    cfg.BlockSize,
	})
	return tr, err
}

// NewDiskMedium opens (creating if absent) a durable disk bucket store
// at path, sized and keyed exactly as NewDevice would size a device for
// cfg — ready to hand in via DeviceConfig.Storage.Medium. The caller
// owns the handle: Close it after the device (or service) is done. Like
// a WAL file, one handle is shared across service recovery incarnations.
func NewDiskMedium(cfg DeviceConfig, path string) (*storage.Disk, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tr, err := planDeviceTree(cfg)
	if err != nil {
		return nil, err
	}
	return storage.OpenDisk(path, tr, block.Geometry{Z: cfg.Z, PayloadSize: cfg.BlockSize}, cfg.Key)
}

// NewDevice creates an oblivious block store holding cfg.Blocks blocks of
// cfg.BlockSize bytes, all initially zero.
func NewDevice(cfg DeviceConfig) (*Device, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tr, err := planDeviceTree(cfg)
	if err != nil {
		return nil, err
	}
	geo := block.Geometry{Z: cfg.Z, PayloadSize: cfg.BlockSize}
	var store storage.Medium
	if cfg.Storage.Medium != nil {
		store = cfg.Storage.Medium
		if store.Tree() != tr {
			return nil, fmt.Errorf("forkoram: supplied medium has %v, config wants %v", store.Tree(), tr)
		}
		if store.Geometry() != geo {
			return nil, fmt.Errorf("forkoram: supplied medium has geometry %+v, config wants %+v",
				store.Geometry(), geo)
		}
		// A new device starts from an empty tree; whatever the medium held
		// before (a previous incarnation's frames, including torn ones) is
		// dead state — durability of acknowledged writes flows from the
		// WAL + checkpoint story, which restores the medium image
		// explicitly (RestoreDevice), never from trusting frames in place.
		if err := store.Reset(); err != nil {
			return nil, fmt.Errorf("forkoram: reset supplied medium: %w", err)
		}
	} else {
		store, err = storage.NewMem(tr, geo, cfg.Key)
		if err != nil {
			return nil, err
		}
	}
	var verifier *storage.Integrity
	if cfg.Integrity {
		verifier = storage.NewIntegrity(store, tr)
	}
	return assembleDevice(cfg, tr, store, verifier, rng.New(cfg.Seed))
}

// assembleDevice wires the controller stack over an existing medium and
// (optional) integrity layer — shared by NewDevice and RestoreDevice.
// Stack, bottom to top: base medium → simulated remote tier → retry
// layer → Merkle verifier → write-through RAM tier → fault injector →
// controller. The verifier's hashes are always computed from the raw
// medium (out-of-band maintenance reads pay no remote latency and trip
// no injected faults); its data path is rebased onto whatever stack
// sits below it.
func assembleDevice(cfg DeviceConfig, tr tree.Tree, store storage.Medium,
	verifier *storage.Integrity, root *rng.Source) (*Device, error) {

	if disk, ok := store.(*storage.Disk); ok {
		disk.SetCrashWrite(nil) // hooks do not survive reassembly
	}
	var backend storage.Backend = store
	var remote *storage.Remote
	var sretry *storage.Retry
	if cfg.Storage.Remote != nil {
		remote = storage.NewRemote(store, *cfg.Storage.Remote)
		backend = remote
		rc := storage.RetryConfig{}
		if cfg.Storage.Retry != nil {
			rc = *cfg.Storage.Retry
		}
		// A remote tier always gets the retry front: bulk callers do not
		// retry, so transients must be absorbed (or exhausted into a
		// fail-stop) below the bulk surface.
		sretry = storage.NewRetry(remote, rc)
		backend = sretry
	}
	if verifier != nil {
		verifier.Rebase(backend)
		backend = verifier
	}
	var tier *mac.Treetop
	if cfg.Storage.TierBytes > 0 {
		var err error
		tier, err = mac.NewWriteThroughTreetop(backend, tr, cfg.Storage.TierBytes)
		if err != nil {
			return nil, err
		}
		backend = tier
	}
	var inj *faults.Injector
	if cfg.Faults != nil {
		// The injector sits above the Merkle layer but corrupts the raw
		// medium, so injected corruption is exactly what verification is
		// specified to catch.
		inj = faults.NewInjector(backend, store, *cfg.Faults)
		backend = inj
	}
	d := &Device{cfg: cfg, tr: tr, store: store, remote: remote, sretry: sretry,
		verifier: verifier, tier: tier, inj: inj}
	pcfg := pathoram.Config{Tree: tr, StashCapacity: cfg.StashCapacity, TrackData: true, Retries: cfg.Retries}
	var err error
	switch cfg.Variant {
	case Baseline:
		d.base, err = pathoram.New(pcfg, backend, root.Split())
		if err != nil {
			return nil, err
		}
		d.ctl = d.base.Controller()
		d.pos = d.base.PositionMap()
	case Fork:
		d.ctl, err = pathoram.NewController(pcfg, backend)
		if err != nil {
			return nil, err
		}
		d.pos = posmap.New(tr, root.Split())
		d.eng, err = fork.NewEngine(fork.Config{
			QueueSize:           cfg.QueueSize,
			AgeThreshold:        16 * cfg.QueueSize,
			MergeEnabled:        true,
			DummyReplaceEnabled: true,
		}, d.ctl, root.Split())
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("forkoram: unknown variant %d", cfg.Variant)
	}
	return d, nil
}

// BlockSize returns the payload size.
func (d *Device) BlockSize() int { return d.cfg.BlockSize }

// Blocks returns the number of addressable blocks.
func (d *Device) Blocks() uint64 { return d.cfg.Blocks }

// Leaves returns the number of leaves of the ORAM tree — the range of
// the labels reported to an Observer. Public information.
func (d *Device) Leaves() uint64 { return d.tr.Leaves() }

// IntegrityRoot returns the current Merkle root over the stored bucket
// ciphertexts. It is only meaningful when the device was created with
// Integrity enabled; ok reports that.
func (d *Device) IntegrityRoot() (root [32]byte, ok bool) {
	if d.verifier == nil {
		return root, false
	}
	return d.verifier.Root(), true
}

// Poisoned returns the error that poisoned the device, or nil while it
// is healthy.
func (d *Device) Poisoned() error {
	if d.poisoned == nil {
		return nil
	}
	return d.poisoned
}

// poison records the first unrecovered failure; later operations see
// only the PoisonedError wrapping it.
func (d *Device) poison(cause error) {
	if d.poisoned == nil {
		d.poisoned = &PoisonedError{Cause: cause}
	}
	d.held = nil
}

// checkAddr validates an address before any state is touched, so
// validation failures neither poison the device nor count in Stats.
func (d *Device) checkAddr(addr uint64) error {
	if addr >= d.cfg.Blocks {
		return fmt.Errorf("forkoram: address %d out of range (blocks=%d)", addr, d.cfg.Blocks)
	}
	return nil
}

// Read returns the contents of the block at addr (zero-filled if never
// written).
func (d *Device) Read(addr uint64) ([]byte, error) {
	if err := d.enter(); err != nil {
		return nil, err
	}
	defer d.leave()
	return d.read(addr)
}

func (d *Device) read(addr uint64) ([]byte, error) {
	if d.poisoned != nil {
		return nil, d.poisoned
	}
	if err := d.checkAddr(addr); err != nil {
		return nil, err
	}
	d.reads++
	out, err := d.access(pathoram.OpRead, addr, nil)
	if err != nil {
		d.poison(err)
	}
	return out, err
}

// Write replaces the contents of the block at addr. data must be exactly
// BlockSize bytes.
func (d *Device) Write(addr uint64, data []byte) error {
	if err := d.enter(); err != nil {
		return err
	}
	defer d.leave()
	return d.write(addr, data)
}

func (d *Device) write(addr uint64, data []byte) error {
	if d.poisoned != nil {
		return d.poisoned
	}
	if err := d.checkAddr(addr); err != nil {
		return err
	}
	if len(data) != d.cfg.BlockSize {
		return fmt.Errorf("forkoram: payload %d bytes, want %d", len(data), d.cfg.BlockSize)
	}
	d.writes++
	_, err := d.access(pathoram.OpWrite, addr, data)
	if err != nil {
		d.poison(err)
	}
	return err
}

// access runs one admitted (validated, counted) operation. Any error it
// returns left the device in a half-applied state — the caller poisons.
func (d *Device) access(op pathoram.Op, addr uint64, data []byte) ([]byte, error) {
	if d.base != nil {
		out, acc, err := d.base.Access(op, addr, data)
		if err == nil && d.cfg.Observer != nil && acc.ReadNodes != nil {
			d.cfg.Observer(acc.Label, acc.Dummy, acc.ReadNodes, acc.WriteNodes)
		}
		return out, err
	}
	return d.forkAccess(op, addr, data)
}

// refill runs a begun Fork access's write phase down to its fork point
// with the pending entry, finishes it, and reports it to the Observer.
func (d *Device) refill(a *fork.Access) error {
	if err := d.eng.Complete(a); err != nil {
		return err
	}
	if d.cfg.Observer != nil {
		d.cfg.Observer(a.Label, a.Dummy(), a.ReadNodes, a.WriteNodes)
	}
	return nil
}

// release completes the held access, if any. Operations call it after
// admitting their requests, so the refill stops at the fork point shared
// with the request that replaced its pending dummy; Stats, Snapshot and
// the scrubs call it first, completing the refill with the dummy. An
// error left the device half-applied: the caller poisons.
func (d *Device) release() error {
	a := d.held
	if a == nil {
		return nil
	}
	d.held = nil
	return d.refill(a)
}

// drive runs serial Fork accesses, calling admit after each, until done
// reports true. The access whose Begin made done true served the
// operation's last request; it is held instead of refilled (see the
// Device doc). More than limit accesses is an engine bug.
func (d *Device) drive(done func() bool, admit func(), limit int) error {
	for i := 0; !done(); i++ {
		if i == limit {
			return fmt.Errorf("forkoram: operation not served after %d accesses (engine bug)", limit)
		}
		a, err := d.eng.Begin()
		if err != nil {
			return err
		}
		if done() {
			d.held = a
			return nil
		}
		if err := d.refill(a); err != nil {
			return err
		}
		admit()
	}
	return nil
}

// forkAccess runs one operation through the Fork engine: enqueue the
// request, release the held access, then run engine accesses until the
// request is served.
func (d *Device) forkAccess(op pathoram.Op, addr uint64, data []byte) ([]byte, error) {
	// Step-1 stash shortcut, valid because the synchronous API guarantees
	// no unserved request for the address unless queued. The held
	// access's request is served: its block stays in the stash until the
	// refill, so a repeat of that address is a hit. A stash hit causes no
	// memory traffic and is therefore not reported to the Observer (see
	// the DeviceConfig.Observer contract).
	//
	// The block is still remapped, like the baseline's Step 1: serving it
	// under its old label would let a stash-hit write produce a modified
	// block whose stale tree copy shares the still-current label — two
	// same-label copies with different payloads on one path, which a
	// crash-restored engine (reading full paths again) could resolve the
	// wrong way.
	if d.held != nil && d.held.Item.Addr == addr || !d.eng.HasAddr(addr) {
		if _, ok := d.ctl.Stash().Get(addr); ok {
			_, _, next := d.pos.Remap(addr)
			return d.ctl.FetchBlock(op, addr, next, data)
		}
	}
	old, _, next := d.pos.Remap(addr)
	d.nextID++
	var out []byte
	served := false
	it := &fork.Item{ID: d.nextID, Addr: addr, OldLabel: old, NewLabel: next}
	it.Serve = func() error {
		o, err := d.ctl.FetchBlock(op, addr, next, data)
		out, served = o, true
		return err
	}
	if !d.eng.Enqueue(it) {
		return nil, fmt.Errorf("forkoram: label queue rejected request (full of reals)")
	}
	if err := d.release(); err != nil {
		return nil, err
	}
	// The request took the held access's pending slot, or it competes in
	// the queue and is served within at most QueueSize accesses (aging
	// guards the pathological case).
	if err := d.drive(func() bool { return served }, func() {}, 32*d.cfg.QueueSize); err != nil {
		return nil, err
	}
	return out, nil
}

// Batch executes a set of operations, admitting as many as possible into
// the label queue before draining, so Fork Path's scheduling can reorder
// them for path overlap. Results are positional: for reads, the payload;
// for writes, nil. Operations on the same address keep program order.
// A one-op batch is exactly a Read or Write, Step-1 stash shortcut
// included.
//
// The whole batch is validated up front: a malformed op (address out of
// range, wrong payload size) rejects the batch before any operation runs,
// with no state change and nothing counted in Stats. Errors during
// execution poison the device (see ErrPoisoned): some operations may
// have been applied, and the returned results must be discarded.
func (d *Device) Batch(ops []BatchOp) ([][]byte, error) {
	if err := d.enter(); err != nil {
		return nil, err
	}
	defer d.leave()
	return d.batch(ops)
}

func (d *Device) batch(ops []BatchOp) ([][]byte, error) {
	if d.poisoned != nil {
		return nil, d.poisoned
	}
	for i, op := range ops {
		if err := d.checkAddr(op.Addr); err != nil {
			return nil, fmt.Errorf("forkoram: batch op %d: %w", i, err)
		}
		if op.Write && len(op.Data) != d.cfg.BlockSize {
			return nil, fmt.Errorf("forkoram: batch op %d: payload %d bytes, want %d",
				i, len(op.Data), d.cfg.BlockSize)
		}
	}
	results := make([][]byte, len(ops))
	if d.base != nil || len(ops) <= 1 {
		// Baseline has no scheduling; run sequentially. A one-op batch
		// runs as Read or Write does, so a stash-resident block is served
		// by the Step-1 shortcut instead of a queued traversal.
		for i, op := range ops {
			var err error
			if op.Write {
				err = d.write(op.Addr, op.Data)
			} else {
				results[i], err = d.read(op.Addr)
			}
			if err != nil {
				return nil, err
			}
		}
		return results, nil
	}
	pendingCount := 0
	next := 0
	admit := func() {
		for next < len(ops) && d.eng.CanEnqueue() {
			i, op := next, ops[next]
			old, _, nl := d.pos.Remap(op.Addr)
			pop := pathoram.OpRead
			if op.Write {
				pop = pathoram.OpWrite
			}
			it := &fork.Item{ID: d.nextID + 1, Addr: op.Addr, OldLabel: old, NewLabel: nl}
			it.Serve = func() error {
				o, err := d.ctl.FetchBlock(pop, op.Addr, nl, op.Data)
				if !op.Write {
					results[i] = o
				}
				pendingCount--
				return err
			}
			if !d.eng.Enqueue(it) {
				// The held access's pending dummy is replaceable, but not
				// by this address (an earlier request for it is held or
				// queued), and the queue is full. Undo the remap, so the
				// retry reads the path the block is on; Set cannot fail
				// on a label the map itself drew.
				_ = d.pos.Set(op.Addr, old)
				break
			}
			d.nextID++
			if op.Write {
				d.writes++
			} else {
				d.reads++
			}
			pendingCount++
			next++
		}
	}
	// Admit, then release: the first request replaces the held access's
	// pending dummy, so the held refill merges with it.
	admit()
	err := d.release()
	if err == nil {
		err = d.drive(func() bool { return pendingCount == 0 && next == len(ops) },
			admit, 64*(len(ops)+d.cfg.QueueSize))
	}
	if err != nil {
		d.poison(err)
		return nil, err
	}
	return results, nil
}

// BatchOp is one operation of a Batch.
type BatchOp struct {
	Addr  uint64
	Write bool
	Data  []byte // writes only
}

// RetryStats returns the controller's transient-failure retry counters.
func (d *Device) RetryStats() pathoram.RetryStats { return d.ctl.Retries() }

// FaultCounts returns the faults injected so far; ok is false when the
// device was created without a fault schedule (DeviceConfig.Faults nil).
func (d *Device) FaultCounts() (c faults.Counts, ok bool) {
	if d.inj == nil {
		return c, false
	}
	return d.inj.Counts(), true
}

// Stats returns cumulative device statistics. Reads and Writes count
// only admitted operations: requests rejected by validation (address out
// of range, wrong payload size) or by a poisoned device do not appear.
//
// Stats first completes the held Fork refill, with its pending dummy, so
// every traversal it counts has also reached the Observer. Calling it
// between operations therefore costs the next request its merge with
// the previous access.
func (d *Device) Stats() DeviceStats {
	if d.enter() == nil {
		if err := d.release(); err != nil {
			d.poison(err)
		}
		d.leave()
	}
	st := DeviceStats{
		Reads:      d.reads,
		Writes:     d.writes,
		Stash:      d.ctl.Stash().Stats(),
		PathLength: d.tr.Levels(),
	}
	c := d.store.Counters()
	st.BucketReads, st.BucketWrites = c.BucketReads, c.BucketWrites
	if d.eng != nil {
		es := d.eng.Stats()
		st.RealAccesses, st.DummyAccesses = es.RealAccesses, es.DummyAccesses
	} else {
		st.RealAccesses = d.reads + d.writes
	}
	st.Storage = d.storageStats()
	return st
}
