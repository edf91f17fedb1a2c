// Package storage provides the untrusted external memory holding the ORAM
// tree. Two backends implement the same Backend interface:
//
//   - Mem keeps real encrypted bucket images (ciphertext bytes), exactly
//     what an adversary snooping DRAM would observe. It is used by the
//     functional correctness and security tests.
//   - Disk keeps the same sealed bucket images in a preallocated file with
//     a torn-write-detectable frame (epoch + CRC) around every bucket, so
//     the medium survives process death and a kill mid-write surfaces as a
//     typed ErrCorrupt instead of silent garbage (see disk.go).
//   - Meta keeps only block metadata (address, label) with no payload and
//     no encryption, lazily materializing buckets on first touch. It makes
//     paper-scale trees (L = 24 and beyond) affordable for the timing and
//     energy experiments, where payload bytes are never consulted.
//
// Mem and Disk additionally implement Medium — the full raw-ciphertext
// view recovery, fault injection, and integrity hashing operate on. The
// Remote and Retry decorators model a slow, failure-prone lower tier and
// the bounded oblivious retry layer in front of it (remote.go, retry.go).
//
// Both backends model a tree that starts empty (all dummy blocks): data
// blocks enter the tree through write-back from the stash, the standard
// initialization in Path ORAM implementations.
package storage

import (
	"fmt"
	"sync"

	"forkoram/internal/block"
	"forkoram/internal/crypt"
	"forkoram/internal/tree"
)

// Backend is the plaintext-level view of untrusted memory used by ORAM
// controllers: whole-bucket reads and writes addressed by tree node.
// Implementations count accesses for the experiment harness.
//
// Buffer contract (what lets controllers run allocation-free):
//   - Read results are valid only until the next call, read or write, on
//     the same backend: implementations decode into reused staging, and
//     a block's Data is a view of that staging. A caller that keeps a
//     block must copy its payload out first; the stash does, copying
//     every payload it is handed into a buffer it owns.
//   - Writes retain nothing: WriteBucket and WriteBuckets must not keep
//     any block, block slice or payload after they return. The caller
//     owns them and reuses the payload buffers for later reads.
//     Decorators that cache buckets (internal/mac) deep-copy them for
//     exactly this reason.
type Backend interface {
	// ReadBucket returns the current contents of bucket n (real blocks
	// only; dummies are implicit). The result is valid until the next
	// call on the backend.
	ReadBucket(n tree.Node) (block.Bucket, error)
	// WriteBucket replaces the contents of bucket n. It must not retain
	// b.Blocks or any payload.
	WriteBucket(n tree.Node, b *block.Bucket) error
	// Geometry returns the bucket shape.
	Geometry() block.Geometry
	// Counters returns cumulative access counts.
	Counters() Counters
}

// Counters tallies bucket-level traffic to untrusted memory.
type Counters struct {
	BucketReads  uint64
	BucketWrites uint64
}

// Medium is the full raw-ciphertext view of a base storage tier (Mem or
// Disk): the Backend surface plus bulk IO, plus the out-of-band hooks the
// recovery, fault-injection, and integrity layers need. A Medium is what
// DeviceConfig.Storage plugs in; decorators (Remote, Retry, Integrity,
// mac.Treetop, faults.Injector) stack on top of one.
type Medium interface {
	BulkBackend
	// Tree returns the tree shape the medium was laid out for.
	Tree() tree.Tree
	// Reset reverts every bucket to never-written (a freshly created
	// device assumes an empty tree; stale frames from a previous
	// incarnation are dead state, recovered — if at all — from a
	// checkpoint, never trusted in place).
	Reset() error
	// Ciphertext returns the raw sealed image of bucket n as an adversary
	// would observe it, or nil if never written. Implementations may
	// return either the live cell or a copy — mutations that should reach
	// the medium must go through SetCiphertext.
	Ciphertext(n tree.Node) []byte
	// SetCiphertext overwrites the raw sealed image of bucket n (nil
	// reverts the bucket to never-written).
	SetCiphertext(n tree.Node, ct []byte)
}

// Mem is a ciphertext-at-rest backend: every bucket is stored sealed with
// probabilistic encryption, and re-sealed under a fresh nonce on every
// write. Buckets never written are implicitly all-dummy.
//
// Every method holds mu for its whole body, bulk calls included, and
// does its crypto on the calling goroutine. Reads decode into staging
// apart from the writes': ReadBucket into its own, ReadBuckets into one
// slot per bucket. A bulk read's results therefore survive writes and
// per-bucket reads, so one goroutine may inspect them while another
// writes other buckets.
type Mem struct {
	tr   tree.Tree
	geo  block.Geometry
	eng  *crypt.Engine
	mu   sync.Mutex // held for the whole body of every method
	data map[tree.Node][]byte
	cnt  Counters

	wrPt []byte      // plaintext staging of every write, per-bucket and bulk
	one  readStage   // ReadBucket's staging
	rd   []readStage // ReadBuckets' staging, one slot per bucket
}

// NewMem creates a Mem backend for the given tree and bucket geometry,
// encrypting with key (16 bytes).
func NewMem(tr tree.Tree, geo block.Geometry, key []byte) (*Mem, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	eng, err := crypt.NewEngine(key, 0)
	if err != nil {
		return nil, err
	}
	return &Mem{tr: tr, geo: geo, eng: eng, data: make(map[tree.Node][]byte)}, nil
}

// ReadBucket implements Backend. decodeSealed performs the decrypt,
// decode and plausibility check: every real block ever written carries
// a label naming a leaf of this tree. Ciphertext corruption under CTR
// scrambles the decrypted headers, so corruption touching a header
// fails the check with overwhelming probability (a random 64-bit word is
// a valid label with chance Leaves/2^64). Payload-only corruption is NOT
// detectable here — that is what the Merkle layer (Integrity) is for;
// the on-path eviction invariant is audited by Scrub, not enforced per
// read.
func (m *Mem) ReadBucket(n tree.Node) (block.Bucket, error) {
	if !m.tr.ValidNode(n) {
		return block.Bucket{}, fmt.Errorf("storage: node %d out of range", n)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cnt.BucketReads++
	m.one.fit(m.geo)
	return decodeSealed(m.eng, m.geo, m.tr, n, m.data[n], &m.one)
}

// WriteBucket implements Backend.
func (m *Mem) WriteBucket(n tree.Node, b *block.Bucket) error {
	if !m.tr.ValidNode(n) {
		return fmt.Errorf("storage: node %d out of range", n)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cnt.BucketWrites++
	return m.seal(n, b)
}

// Geometry implements Backend.
func (m *Mem) Geometry() block.Geometry { return m.geo }

// Tree implements Medium.
func (m *Mem) Tree() tree.Tree { return m.tr }

// Counters implements Backend.
func (m *Mem) Counters() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cnt
}

// Ciphertext returns the raw sealed image of bucket n as an adversary
// would observe it, or nil if the bucket was never written. For Mem the
// returned slice is the live storage cell, but portable callers must not
// rely on that (Disk returns a copy): mutations that model medium
// corruption go through SetCiphertext. Test and fault-injection hook;
// controllers must not use it.
func (m *Mem) Ciphertext(n tree.Node) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.data[n]
}

// Reset implements Medium: every bucket reverts to never-written.
func (m *Mem) Reset() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = make(map[tree.Node][]byte)
	return nil
}

// SetCiphertext overwrites the raw sealed image of bucket n with a copy
// of ct (nil deletes the cell, reverting the bucket to never-written).
// Fault-injection hook modelling an active adversary or failing medium
// replaying stale bytes; controllers must not use it.
func (m *Mem) SetCiphertext(n tree.Node, ct []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ct == nil {
		delete(m.data, n)
		return
	}
	m.data[n] = append([]byte(nil), ct...)
}

// Meta is a metadata-only backend for large-scale timing simulation. It
// stores (addr, label) pairs per bucket with nil payloads and performs no
// encryption. Blocks round-trip with Data == nil.
type Meta struct {
	tr   tree.Tree
	geo  block.Geometry
	data map[tree.Node][]metaBlock
	cnt  Counters

	readBuf []block.Block // backs ReadBucket results (valid until next read)
}

type metaBlock struct {
	addr  uint64
	label uint64
}

// NewMeta creates a Meta backend.
func NewMeta(tr tree.Tree, geo block.Geometry) (*Meta, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	return &Meta{tr: tr, geo: geo, data: make(map[tree.Node][]metaBlock)}, nil
}

// ReadBucket implements Backend.
func (m *Meta) ReadBucket(n tree.Node) (block.Bucket, error) {
	if !m.tr.ValidNode(n) {
		return block.Bucket{}, fmt.Errorf("storage: node %d out of range", n)
	}
	m.cnt.BucketReads++
	blocks := m.data[n]
	if len(blocks) == 0 {
		return block.Bucket{}, nil
	}
	// Per the Backend contract the result is only valid until the next
	// read, so one reused buffer backs every bucket handed out.
	buf := m.readBuf[:0]
	for _, mb := range blocks {
		buf = append(buf, block.Block{Addr: mb.addr, Label: mb.label})
	}
	m.readBuf = buf
	return block.Bucket{Blocks: buf}, nil
}

// WriteBucket implements Backend.
func (m *Meta) WriteBucket(n tree.Node, b *block.Bucket) error {
	if !m.tr.ValidNode(n) {
		return fmt.Errorf("storage: node %d out of range", n)
	}
	if len(b.Blocks) > m.geo.Z {
		return fmt.Errorf("storage: bucket %d overfull (%d > Z=%d)", n, len(b.Blocks), m.geo.Z)
	}
	m.cnt.BucketWrites++
	if len(b.Blocks) == 0 {
		delete(m.data, n) // keep the lazy map sparse
		return nil
	}
	// Rewrite into the bucket's existing slot when capacity allows: in
	// steady state path refills stop allocating entirely.
	mbs := m.data[n]
	if cap(mbs) < len(b.Blocks) {
		mbs = make([]metaBlock, len(b.Blocks))
	}
	mbs = mbs[:len(b.Blocks)]
	for i, blk := range b.Blocks {
		mbs[i] = metaBlock{addr: blk.Addr, label: blk.Label}
	}
	m.data[n] = mbs
	return nil
}

// Geometry implements Backend.
func (m *Meta) Geometry() block.Geometry { return m.geo }

// Counters implements Backend.
func (m *Meta) Counters() Counters { return m.cnt }

// Occupancy returns the total number of real blocks currently stored in
// the tree — used by invariant checks and utilization accounting.
func (m *Meta) Occupancy() uint64 {
	var n uint64
	for _, b := range m.data {
		n += uint64(len(b))
	}
	return n
}

var (
	_ Backend = (*Mem)(nil)
	_ Backend = (*Meta)(nil)
	_ Medium  = (*Mem)(nil)
)
