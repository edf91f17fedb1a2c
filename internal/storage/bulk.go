package storage

import (
	"fmt"

	"forkoram/internal/block"
	"forkoram/internal/crypt"
	"forkoram/internal/tree"
)

// BulkBackend is an optional Backend extension for reading or writing a
// set of DISTINCT buckets in one call. Semantics are exactly those of
// the per-bucket methods applied to each index; only the internal
// scheduling differs (Disk overlaps its per-slot file IO and crypto
// across cores, Mem runs the buckets one after another on the caller).
// Bulk callers do not retry: transient faults must be absorbed below the
// bulk surface (the Retry layer does this for a Remote tier), so an
// error that still wraps ErrTransient after a bulk call means the retry
// budget is exhausted and the caller fail-stops. The fault-injecting and
// integrity decorators deliberately do not implement the interface:
// their per-bucket retry and verification semantics are defined one
// bucket at a time, and a controller that sees no BulkBackend on top of
// the stack falls back to the per-bucket path.
//
// Concurrency: a ReadBuckets and a WriteBuckets call may run
// concurrently over disjoint node sets, and a bulk read's results
// survive the concurrent writer's calls (reads and writes stage in
// separate buffers). Same-kind calls serialize inside the
// implementation. The controller issues one bulk call at a time.
type BulkBackend interface {
	Backend
	// ReadBuckets fills out[i] with the contents of bucket ns[i].
	// len(out) must equal len(ns). Results follow the Backend buffer
	// contract: valid until the next call on this backend.
	ReadBuckets(ns []tree.Node, out []block.Bucket) error
	// WriteBuckets replaces bucket ns[i] with bks[i] for every i. It
	// must not retain any block or payload of bks. A failure may leave
	// a subset of the buckets written (the caller fail-stops on error).
	WriteBuckets(ns []tree.Node, bks []block.Bucket) error
}

// bulkMinBytes is the per-call plaintext volume below which Disk's bulk
// calls run serially: starting a helper goroutine costs more than the
// work it would take over for tiny geometries. Package variable so
// tests can force the parallel branch.
var bulkMinBytes = 4096

// growSlots sizes a per-slot staging slice to n buffers of size bytes,
// reusing existing backing so the steady state allocates nothing.
func growSlots(slots [][]byte, n, size int) [][]byte {
	if cap(slots) < n {
		grown := make([][]byte, n)
		copy(grown, slots)
		slots = grown
	}
	slots = slots[:n]
	for i := range slots {
		if cap(slots[i]) < size {
			slots[i] = make([]byte, size)
		}
		slots[i] = slots[i][:size]
	}
	return slots
}

// readStage is the staging one decoded bucket lives in: the plaintext
// image its payloads are views of, and the block slice the decode fills.
// A read's result is valid until its stage is reused.
type readStage struct {
	pt     []byte
	blocks []block.Block
}

// fit sizes the stage for one bucket of geo, allocating only the first
// time.
func (st *readStage) fit(geo block.Geometry) {
	if size := geo.BucketSize(); cap(st.pt) < size {
		st.pt = make([]byte, size)
	}
	st.pt = st.pt[:geo.BucketSize()]
	if cap(st.blocks) < geo.Z {
		st.blocks = make([]block.Block, 0, geo.Z)
	}
}

// growStages sizes a per-slot read staging slice to n fitted stages.
func growStages(st []readStage, n int, geo block.Geometry) []readStage {
	if cap(st) < n {
		grown := make([]readStage, n)
		copy(grown, st)
		st = grown
	}
	st = st[:n]
	for i := range st {
		st[i].fit(geo)
	}
	return st
}

// ReadBuckets implements BulkBackend: under mu, bucket by bucket on the
// caller, each bucket decoded into its own staging slot.
func (m *Mem) ReadBuckets(ns []tree.Node, out []block.Bucket) error {
	if len(ns) != len(out) {
		return fmt.Errorf("storage: bulk read of %d nodes into %d slots", len(ns), len(out))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, n := range ns {
		if !m.tr.ValidNode(n) {
			return fmt.Errorf("storage: node %d out of range", n)
		}
	}
	m.cnt.BucketReads += uint64(len(ns))
	m.rd = growStages(m.rd, len(ns), m.geo)
	for i, n := range ns {
		out[i] = block.Bucket{}
		bk, err := decodeSealed(m.eng, m.geo, m.tr, n, m.data[n], &m.rd[i])
		if err != nil {
			return err
		}
		out[i] = bk
	}
	return nil
}

// decodeSealed is the shared open+decode+plausibility core behind Mem
// and Disk reads. ct nil means never written (all dummies); st is a
// fitted stage owned by the caller, which the result's payloads view.
func decodeSealed(eng *crypt.Engine, geo block.Geometry, tr tree.Tree, n tree.Node, ct []byte, st *readStage) (block.Bucket, error) {
	if ct == nil {
		return block.Bucket{}, nil // never-written bucket: all dummies
	}
	if err := eng.Open(st.pt, ct); err != nil {
		return block.Bucket{}, corruptf("storage: bucket %d unreadable (%v)", n, err)
	}
	bk, err := geo.DecodeBucket(st.pt, st.blocks)
	if err != nil {
		return block.Bucket{}, corruptf("storage: bucket %d undecodable (%v)", n, err)
	}
	for _, b := range bk.Blocks {
		if !tr.ValidLabel(b.Label) {
			return block.Bucket{}, corruptf("storage: bucket %d holds implausible block (addr %d label %d)",
				n, b.Addr, b.Label)
		}
	}
	return bk, nil
}

// WriteBuckets implements BulkBackend: under mu, bucket by bucket on the
// caller. A failure leaves the buckets before the failing one written.
func (m *Mem) WriteBuckets(ns []tree.Node, bks []block.Bucket) error {
	if len(ns) != len(bks) {
		return fmt.Errorf("storage: bulk write of %d nodes with %d buckets", len(ns), len(bks))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, n := range ns {
		if !m.tr.ValidNode(n) {
			return fmt.Errorf("storage: node %d out of range", n)
		}
	}
	m.cnt.BucketWrites += uint64(len(ns))
	for i, n := range ns {
		if err := m.seal(n, &bks[i]); err != nil {
			return err
		}
	}
	return nil
}

// seal is the counting-free core of both writes: encode b into the write
// staging, then re-seal into the bucket's existing ciphertext slot, so
// after the tree's first full traversal writes stop allocating. Safe
// because every reader of ciphertexts (Integrity's hasher, the security
// tests) copies or consumes them before the next write. Caller holds mu.
func (m *Mem) seal(n tree.Node, b *block.Bucket) error {
	if size := m.geo.BucketSize(); cap(m.wrPt) < size {
		m.wrPt = make([]byte, size)
	}
	pt := m.wrPt[:m.geo.BucketSize()]
	if err := m.geo.EncodeBucket(pt, b); err != nil {
		return err
	}
	need := crypt.SealedSize(len(pt))
	ct := m.data[n]
	if cap(ct) < need {
		ct = make([]byte, need)
	}
	ct = ct[:need]
	if err := m.eng.Seal(ct, pt); err != nil {
		return err
	}
	m.data[n] = ct
	return nil
}

var _ BulkBackend = (*Mem)(nil)
