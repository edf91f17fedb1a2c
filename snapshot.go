package forkoram

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"forkoram/internal/block"
	"forkoram/internal/rng"
	"forkoram/internal/storage"
	"forkoram/internal/tree"
)

// Snapshot is a point-in-time capture of a Device's trusted client state:
// position map, stash contents, Merkle root (when integrity is enabled)
// and operation counters. Together with the surviving untrusted medium it
// is sufficient to resume after a client crash: everything else the
// controller holds is either derivable (the hash tree rebuilds from the
// medium and is checked against the trusted root) or disposable (label
// randomness resumes from a derived seed without weakening the uniform-
// relabeling argument — fresh uniform labels are fresh uniform labels
// regardless of which stream they come from).
//
// Snapshots are taken at quiescence (Device.Snapshot completes the held
// Fork refill first), so the Path ORAM invariant — every mapped block is
// in the stash or on its mapped path — holds at capture time and again
// immediately after restore.
type Snapshot struct {
	cfg    DeviceConfig
	tr     tree.Tree
	medium storage.Medium

	root    [32]byte
	hasRoot bool

	pos    []posEntry
	stash  []block.Block
	nextID uint64
	reads  uint64
	writes uint64
	reseed uint64
}

type posEntry struct {
	addr  uint64
	label tree.Label
}

// Snapshot captures the device's client state for crash recovery. The
// held Fork access is completed first (its refill runs with its pending
// dummy, which writes to memory), so the snapshot is taken at
// quiescence. Under Fork it then writes an empty bucket to every node of
// the fork handle, so a restored engine, which reads full paths, loads
// no stale copy; it reads no bucket. With integrity enabled the whole
// medium is first verified against the trusted hash tree: a mismatch
// fails the snapshot with a wrapped ErrCorrupt and poisons the device.
// A poisoned or otherwise failed device cannot be snapshotted: its state
// is half-applied by definition.
//
// The snapshot shares the untrusted medium with the device; it captures
// no copy of the stored ciphertexts. RestoreDevice therefore models the
// crash-recovery contract of the paper's setting: the trusted client
// state is small (stash + position map + one hash root) and everything
// in external memory stays external.
func (d *Device) Snapshot() (*Snapshot, error) {
	if err := d.enter(); err != nil {
		return nil, err
	}
	defer d.leave()
	return d.snapshot()
}

func (d *Device) snapshot() (*Snapshot, error) {
	if d.poisoned != nil {
		return nil, d.poisoned
	}
	if err := d.ctl.Err(); err != nil {
		return nil, fmt.Errorf("forkoram: snapshot of failed device: %w", err)
	}
	if err := d.release(); err != nil {
		d.poison(err)
		return nil, d.poisoned
	}
	// Every operation serves all of its requests before it returns, so
	// none can be left in the engine.
	if d.eng != nil && (d.eng.RealQueued() > 0 || d.eng.PendingReal()) {
		err := fmt.Errorf("forkoram: snapshot found a real request still queued (engine bug)")
		d.poison(err)
		return nil, err
	}
	if err := d.compactMedium(); err != nil {
		// The audit surfaced latent medium corruption, or a handle write
		// failed: fail-stop, like any other unrecovered storage failure.
		d.poison(err)
		return nil, d.poisoned
	}
	s := &Snapshot{
		cfg:    d.cfg,
		tr:     d.tr,
		medium: d.store,
		nextID: d.nextID,
		reads:  d.reads,
		writes: d.writes,
		// The restored device draws labels from a stream derived from the
		// device seed and its position in the operation sequence: fully
		// deterministic, never re-uses the crashed device's stream.
		reseed: rng.SeedAt(d.cfg.Seed, 1+d.reads+d.writes),
	}
	if d.verifier != nil {
		s.root = d.verifier.Root()
		s.hasRoot = true
	}
	d.pos.ForEach(func(addr uint64, label tree.Label) {
		s.pos = append(s.pos, posEntry{addr: addr, label: label})
	})
	sortPos(s.pos)
	d.ctl.Stash().ForEach(func(b block.Block) {
		b.Data = append([]byte(nil), b.Data...)
		s.stash = append(s.stash, b)
	})
	return s, nil
}

// compactMedium writes an empty bucket to every node of the fork handle
// (fork.Engine.Handle), so a restored engine, which holds no handle and
// reads full paths again, loads no stale copy. Path merging keeps the
// handle on chip: each handle bucket was read into the stash and not
// rewritten since, so every copy in its medium image is stale. Every
// other bucket was last written by a refill from the stash and holds
// only current copies (the Path ORAM invariant). The live device is
// unaffected: its next access skips the handle's levels and rewrites
// them from the stash. Baseline rewrites every path it reads and holds
// no handle.
//
// Every handle node is written, empty or not, and no bucket is read: the
// write set is the last finished access's path above its topmost written
// node, a function of labels the bus already showed.
func (d *Device) compactMedium() error {
	// Audit before writing: rewriting a handle node refreshes its hash
	// path, and a checkpoint saves the medium alongside the trusted root.
	// VerifyAll pins the whole medium to the trusted hash state first, so
	// a replayed or corrupted bucket surfaces as a typed error here rather
	// than in a backup whose restore would reject it.
	if d.verifier != nil {
		if err := d.verifier.VerifyAll(); err != nil {
			return err
		}
	}
	if d.eng == nil {
		return nil
	}
	label, levels, ok := d.eng.Handle()
	if !ok {
		return fmt.Errorf("forkoram: compaction found an access in flight (engine bug)")
	}
	for lvl := uint(0); lvl < levels; lvl++ {
		n := d.tr.NodeAt(label, lvl)
		if err := d.store.WriteBucket(n, &block.Bucket{}); err != nil {
			return fmt.Errorf("forkoram: compact bucket %d: %w", n, err)
		}
		if d.verifier != nil {
			d.verifier.Refresh(n)
		}
	}
	// The writes bypassed any write-through RAM tier, whose copies of the
	// handle are stale now; drop them and let reads refill.
	if levels > 0 && d.tier != nil {
		d.tier.Invalidate()
	}
	return nil
}

// sortPos orders entries by address: posmap iteration order is map
// order, and snapshots must be byte-identical across runs. Addresses are
// unique, so the order is total.
func sortPos(ps []posEntry) {
	slices.SortFunc(ps, func(a, b posEntry) int { return cmp.Compare(a.addr, b.addr) })
}

// RestoreDevice builds a fresh Device from a snapshot and the surviving
// untrusted medium the snapshot is bound to. When the snapshot carries a
// Merkle root, the hash tree is rebuilt from the medium and compared to
// the trusted root before the device is handed out: a medium that
// diverged since the snapshot (corruption, stale replay, or writes by a
// later client) is rejected with an error wrapping storage.ErrCorrupt.
// Without integrity there is nothing to check against — the restore
// trusts that storage is exactly as the snapshot left it.
//
// The crashed device must not be used after a restore: both share the
// same medium, and concurrent mutation would corrupt the tree.
func RestoreDevice(s *Snapshot) (*Device, error) {
	if s == nil || s.medium == nil {
		return nil, fmt.Errorf("forkoram: restore from empty snapshot")
	}
	cfg := s.cfg
	if cfg.Integrity != s.hasRoot {
		return nil, fmt.Errorf("forkoram: snapshot integrity state inconsistent")
	}
	var verifier *storage.Integrity
	if cfg.Integrity {
		verifier = storage.NewIntegrity(s.medium, s.tr)
		verifier.Rebuild()
		if got := verifier.Root(); got != s.root {
			return nil, fmt.Errorf("forkoram: medium diverged from snapshot (root %x != %x): %w",
				got[:4], s.root[:4], storage.ErrCorrupt)
		}
	}
	d, err := assembleDevice(cfg, s.tr, s.medium, verifier, rng.New(s.reseed))
	if err != nil {
		return nil, err
	}
	for _, e := range s.pos {
		if err := d.pos.Set(e.addr, e.label); err != nil {
			return nil, fmt.Errorf("forkoram: snapshot position map: %w", err)
		}
	}
	st := d.ctl.Stash()
	for _, b := range s.stash {
		b.Data = append([]byte(nil), b.Data...)
		st.Put(b)
	}
	d.nextID, d.reads, d.writes = s.nextID, s.reads, s.writes
	return d, nil
}

// Binary snapshot format (all integers little-endian):
//
//	magic "FKSN" | version u16 | leafLevel u16
//	Blocks u64 | BlockSize u32 | Z u32 | StashCapacity u32 | QueueSize u32
//	Seed u64 | Variant u8 | Integrity u8 | Retries i32 | Key [16]byte
//	nextID u64 | reads u64 | writes u64 | reseed u64
//	root [32]byte (all zero when integrity is off)
//	posCount u64 | posCount × (addr u64, label u64)
//	stashCount u64 | stashCount × (addr u64, label u64, payload [BlockSize]byte)
const snapshotVersion = 1

var snapshotMagic = [4]byte{'F', 'K', 'S', 'N'}

// MarshalBinary serializes the snapshot's client state. The medium is NOT
// serialized (it is the untrusted external memory and survives a client
// crash on its own); UnmarshalSnapshot re-binds one. Observer and Faults
// hooks are not serialized either — they are process-local function and
// schedule state, re-attached from the device passed to
// UnmarshalSnapshot. Note the buffer contains the AES key and plaintext
// stash payloads: a real deployment would seal it to secure storage; the
// simulator leaves that out of scope.
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(snapshotMagic[:])
	le := binary.LittleEndian
	w := func(v any) { binary.Write(&buf, le, v) }
	w(uint16(snapshotVersion))
	w(uint16(s.tr.LeafLevel()))
	w(s.cfg.Blocks)
	w(uint32(s.cfg.BlockSize))
	w(uint32(s.cfg.Z))
	w(uint32(s.cfg.StashCapacity))
	w(uint32(s.cfg.QueueSize))
	w(s.cfg.Seed)
	w(uint8(s.cfg.Variant))
	w(boolByte(s.cfg.Integrity))
	w(int32(s.cfg.Retries))
	if len(s.cfg.Key) != 16 {
		return nil, fmt.Errorf("forkoram: snapshot key must be 16 bytes")
	}
	buf.Write(s.cfg.Key)
	w(s.nextID)
	w(s.reads)
	w(s.writes)
	w(s.reseed)
	buf.Write(s.root[:])
	w(uint64(len(s.pos)))
	for _, e := range s.pos {
		w(e.addr)
		w(uint64(e.label))
	}
	w(uint64(len(s.stash)))
	for _, b := range s.stash {
		if len(b.Data) != s.cfg.BlockSize {
			return nil, fmt.Errorf("forkoram: snapshot stash block %d has %d payload bytes, want %d",
				b.Addr, len(b.Data), s.cfg.BlockSize)
		}
		w(b.Addr)
		w(uint64(b.Label))
		buf.Write(b.Data)
	}
	return buf.Bytes(), nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// UnmarshalSnapshot decodes a serialized snapshot and binds it to the
// medium (and Observer / fault-schedule hooks) of from, which must be a
// device with the same geometry — typically the crashed device itself,
// or any device handle constructed over the surviving storage. The
// returned snapshot is ready for RestoreDevice.
func UnmarshalSnapshot(data []byte, from *Device) (*Snapshot, error) {
	if from == nil {
		return nil, fmt.Errorf("forkoram: UnmarshalSnapshot needs a device for its medium")
	}
	r := bytes.NewReader(data)
	var magic [4]byte
	if _, err := r.Read(magic[:]); err != nil || magic != snapshotMagic {
		return nil, fmt.Errorf("forkoram: not a snapshot (bad magic)")
	}
	le := binary.LittleEndian
	var fail error
	rd := func(v any) {
		if fail == nil {
			fail = binary.Read(r, le, v)
		}
	}
	var version, leafLevel uint16
	rd(&version)
	rd(&leafLevel)
	if fail == nil && version != snapshotVersion {
		return nil, fmt.Errorf("forkoram: snapshot version %d not supported", version)
	}
	s := &Snapshot{}
	var blockSize, z, stashCap, queueSize uint32
	var variant, integrity uint8
	var retries int32
	key := make([]byte, 16)
	rd(&s.cfg.Blocks)
	rd(&blockSize)
	rd(&z)
	rd(&stashCap)
	rd(&queueSize)
	rd(&s.cfg.Seed)
	rd(&variant)
	rd(&integrity)
	rd(&retries)
	if fail == nil {
		if _, err := r.Read(key); err != nil {
			fail = err
		}
	}
	rd(&s.nextID)
	rd(&s.reads)
	rd(&s.writes)
	rd(&s.reseed)
	if fail == nil {
		if _, err := r.Read(s.root[:]); err != nil {
			fail = err
		}
	}
	var posCount uint64
	rd(&posCount)
	if fail != nil {
		return nil, fmt.Errorf("forkoram: truncated snapshot: %w", fail)
	}
	s.cfg.BlockSize = int(blockSize)
	s.cfg.Z = int(z)
	s.cfg.StashCapacity = int(stashCap)
	s.cfg.QueueSize = int(queueSize)
	s.cfg.Variant = Variant(variant)
	s.cfg.Integrity = integrity != 0
	s.cfg.Retries = int(retries)
	s.cfg.Key = key
	s.hasRoot = s.cfg.Integrity
	tr, err := tree.New(uint(leafLevel))
	if err != nil {
		return nil, fmt.Errorf("forkoram: snapshot tree: %w", err)
	}
	s.tr = tr
	if posCount > s.cfg.Blocks {
		return nil, fmt.Errorf("forkoram: snapshot has %d position entries for %d blocks", posCount, s.cfg.Blocks)
	}
	for i := uint64(0); i < posCount; i++ {
		var e posEntry
		rd(&e.addr)
		rd(&e.label)
		if fail == nil && (e.addr >= s.cfg.Blocks || !tr.ValidLabel(e.label)) {
			return nil, fmt.Errorf("forkoram: snapshot position entry (%d→%d) out of range", e.addr, e.label)
		}
		s.pos = append(s.pos, e)
	}
	var stashCount uint64
	rd(&stashCount)
	if fail != nil {
		return nil, fmt.Errorf("forkoram: truncated snapshot: %w", fail)
	}
	if stashCount > s.cfg.Blocks {
		return nil, fmt.Errorf("forkoram: snapshot has %d stash blocks for %d blocks", stashCount, s.cfg.Blocks)
	}
	for i := uint64(0); i < stashCount; i++ {
		var b block.Block
		rd(&b.Addr)
		rd(&b.Label)
		b.Data = make([]byte, s.cfg.BlockSize)
		if fail == nil {
			if _, err := r.Read(b.Data); err != nil {
				fail = err
			}
		}
		if fail == nil && (b.Addr >= s.cfg.Blocks || !tr.ValidLabel(b.Label)) {
			return nil, fmt.Errorf("forkoram: snapshot stash block (%d, label %d) out of range", b.Addr, b.Label)
		}
		s.stash = append(s.stash, b)
	}
	if fail != nil {
		return nil, fmt.Errorf("forkoram: truncated snapshot: %w", fail)
	}
	// Geometry must match the device whose medium we borrow.
	if from.tr != tr || from.cfg.Blocks != s.cfg.Blocks || from.cfg.BlockSize != s.cfg.BlockSize ||
		from.cfg.Z != s.cfg.Z || !bytes.Equal(from.cfg.Key, s.cfg.Key) {
		return nil, fmt.Errorf("forkoram: snapshot geometry does not match device")
	}
	s.medium = from.store
	s.cfg.Observer = from.cfg.Observer
	s.cfg.Faults = from.cfg.Faults
	s.cfg.PipelineDepth = from.cfg.PipelineDepth
	// Storage holds live process-local handles (the medium, remote/retry
	// shaping); like Observer and Faults it is re-bound from the host
	// device, never serialized.
	s.cfg.Storage = from.cfg.Storage
	return s, nil
}

// Scrub audits the whole tree and the on-chip state, returning the first
// problem found. It is the post-crash (and pre-snapshot, if you like)
// full verification walk:
//
//  1. With integrity enabled, every node hash is recomputed from the
//     medium and checked against the trusted hash tree
//     (storage.Integrity.VerifyAll) — this also surfaces latent
//     corruption in buckets no request has touched.
//  2. Every bucket is decrypted and decoded, and each stored block is
//     checked structurally: address in range, payload size exact, and
//     the block located on the path of its own stored label (the
//     eviction rule). On a healthy device every copy off the fork
//     handle (fork.Engine.Handle) must also be current: it carries its
//     mapped label, its address is not in the stash, and no other
//     bucket off the handle holds the address. Handle buckets were read
//     into the stash and not rewritten, so their copies may be stale;
//     so may any copy on a poisoned device, whose last access may have
//     died between its read and its refill.
//  3. The stash is validated, and every mapped address is located: in
//     the stash, or carrying the mapped label somewhere on the mapped
//     path. A mapped block with no fresh copy anywhere is an invariant
//     violation.
//
// Scrub reads the raw medium directly: its traffic bypasses the fault
// injector (a scrub models an offline audit pass) but is counted in the
// backend counters. A poisoned device can be scrubbed — that is the
// point of a post-crash audit.
func (d *Device) Scrub() error {
	if err := d.enter(); err != nil {
		return err
	}
	defer d.leave()
	return d.scrub()
}

func (d *Device) scrub() error {
	// Complete the held refill first, so the walk audits a quiescent
	// tree. A failed refill poisons but does not stop the audit — a
	// poisoned device can be scrubbed.
	if err := d.release(); err != nil {
		d.poison(err)
	}
	if d.verifier != nil {
		if err := d.verifier.VerifyAll(); err != nil {
			return err
		}
	}
	// stale reports whether bucket n may hold stale copies.
	stale := func(tree.Node) bool { return true }
	if d.poisoned == nil {
		stale = func(tree.Node) bool { return false }
		if d.eng != nil {
			label, levels, ok := d.eng.Handle()
			if !ok {
				return fmt.Errorf("forkoram: scrub found an access in flight (engine bug)")
			}
			stale = func(n tree.Node) bool { return d.tr.Level(n) < levels && d.tr.OnPath(label, n) }
		}
	}
	st := d.ctl.Stash()
	stored := make(map[uint64]tree.Node) // bucket of each current copy
	for n := uint64(0); n < d.tr.Nodes(); n++ {
		bk, err := d.store.ReadBucket(n)
		if err != nil {
			return fmt.Errorf("forkoram: scrub bucket %d: %w", n, err)
		}
		for _, b := range bk.Blocks {
			if b.Addr >= d.cfg.Blocks {
				return fmt.Errorf("forkoram: scrub bucket %d: block address %d out of range: %w",
					n, b.Addr, storage.ErrCorrupt)
			}
			if !d.tr.OnPath(b.Label, n) {
				return fmt.Errorf("forkoram: scrub bucket %d: block %d off its label-%d path: %w",
					n, b.Addr, b.Label, storage.ErrCorrupt)
			}
			if len(b.Data) != d.cfg.BlockSize {
				return fmt.Errorf("forkoram: scrub bucket %d: block %d payload %d bytes, want %d: %w",
					n, b.Addr, len(b.Data), d.cfg.BlockSize, storage.ErrCorrupt)
			}
			if stale(n) {
				continue
			}
			if label, ok := d.pos.Lookup(b.Addr); !ok || label != b.Label {
				return fmt.Errorf("forkoram: scrub bucket %d: block %d off the fork handle carries label %d, not its mapped label",
					n, b.Addr, b.Label)
			}
			if _, ok := st.Get(b.Addr); ok {
				return fmt.Errorf("forkoram: scrub bucket %d: block %d is in the stash and off the fork handle",
					n, b.Addr)
			}
			if m, dup := stored[b.Addr]; dup {
				return fmt.Errorf("forkoram: scrub: block %d stored in buckets %d and %d off the fork handle",
					b.Addr, m, n)
			}
			stored[b.Addr] = n
		}
	}
	if err := st.Validate(); err != nil {
		return err
	}
	return d.checkMappedBlocks()
}

// checkMappedBlocks verifies the Path ORAM invariant for every mapped
// address: the block is in the stash with the mapped label, or a copy
// carrying the mapped label sits on the mapped path. Copies with other
// labels are ignored here (scrub judges them) — only the absence of a
// fresh copy is a violation.
func (d *Device) checkMappedBlocks() error {
	var failure error
	st := d.ctl.Stash()
	d.pos.ForEach(func(addr uint64, label tree.Label) {
		if failure != nil {
			return
		}
		if b, ok := st.Get(addr); ok {
			if b.Label != label {
				failure = fmt.Errorf("forkoram: stash block %d labelled %d, position map says %d",
					addr, b.Label, label)
			}
			return
		}
		for lvl := uint(0); lvl <= d.tr.LeafLevel(); lvl++ {
			bk, err := d.store.ReadBucket(d.tr.NodeAt(label, lvl))
			if err != nil {
				failure = err
				return
			}
			for _, b := range bk.Blocks {
				if b.Addr == addr && b.Label == label {
					return // fresh copy found
				}
			}
		}
		failure = fmt.Errorf("forkoram: block %d mapped to label %d found neither in stash nor on its path",
			addr, label)
	})
	return failure
}
