package storage

import (
	"fmt"

	"forkoram/internal/block"
	"forkoram/internal/crypt"
	"forkoram/internal/par"
	"forkoram/internal/tree"
)

// BulkBackend is an optional Backend extension for reading or writing a
// set of DISTINCT buckets in one call, letting the implementation
// spread the per-bucket AES work across cores. Semantics are exactly
// those of the per-bucket methods applied to each index; only the
// internal scheduling differs. Bulk callers do not retry: transient
// faults must be absorbed below the bulk surface (the Retry layer does
// this for a Remote tier), so an error that still wraps ErrTransient
// after a bulk call means the retry budget is exhausted and the caller
// fail-stops. The fault-injecting and integrity decorators deliberately
// do not implement the interface: their per-bucket retry and
// verification semantics are defined one bucket at a time, and a
// controller that sees no BulkBackend on top of the stack falls back to
// the per-bucket path.
//
// Concurrency: any number of ReadBuckets and WriteBuckets calls may run
// concurrently, provided reader/writer node sets are pairwise disjoint
// (the pathoram pipeline's hazard tracking enforces this).
// Implementations serialize same-kind calls internally (their staging
// buffers are per-kind), so concurrent same-kind callers are safe but
// may queue; tiers stacked above the staging (Remote latency, Retry
// backoff) still overlap across calls — which is exactly where the
// concurrent serve stage's fetch parallelism pays.
type BulkBackend interface {
	Backend
	// ReadBuckets fills out[i] with the contents of bucket ns[i].
	// len(out) must equal len(ns). Results follow the ReadBucket
	// buffer contract: valid until the next read on this backend.
	ReadBuckets(ns []tree.Node, out []block.Bucket) error
	// WriteBuckets replaces bucket ns[i] with bks[i] for every i. It
	// must not retain any bks[i].Blocks. A failure may leave a subset
	// of the buckets written (the caller fail-stops on error).
	WriteBuckets(ns []tree.Node, bks []block.Bucket) error
}

// bulkMinBytes is the per-call plaintext volume below which bulk calls
// run serially: starting a helper goroutine costs more than the AES work
// it would take over for tiny geometries. Package variable so tests can force the
// parallel branch.
var bulkMinBytes = 4096

// SetBulkWorkers bounds the goroutines used by ReadBuckets and
// WriteBuckets, the calling goroutine included (it claims buckets beside
// n-1 helpers): 0 (the default) means one per available CPU, 1 forces
// serial execution, and any other value is used as given.
func (m *Mem) SetBulkWorkers(n int) { m.bulkWorkers = n }

// bulkParallel decides whether a bulk call over n buckets is worth
// fanning out.
func (m *Mem) bulkParallel(n int) bool {
	if n < 2 || m.bulkWorkers == 1 {
		return false
	}
	return n*m.geo.BucketSize() >= bulkMinBytes
}

// growSlots sizes a per-slot staging slice to n buffers of size bytes,
// reusing existing backing so the steady state allocates nothing. Each
// bulk role (read, write) owns its own slots, so a concurrent reader
// and writer never share staging memory.
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

// growRefs sizes a ciphertext-reference slice to n entries.
func growRefs(refs [][]byte, n int) [][]byte {
	if cap(refs) < n {
		refs = make([][]byte, n)
	}
	return refs[:n]
}

// ReadBuckets implements BulkBackend. The map and counters are touched
// only under mu — validation, counting, and a snapshot of each node's
// ciphertext reference — then the Open+decode work (all of the CPU
// cost) runs outside the lock, fanned out across bulkWorkers. The
// snapshot is safe against a concurrent disjoint bulk write: map values
// are per-node backings, so a writer re-sealing OTHER nodes never
// touches the bytes a reader snapshot points at.
func (m *Mem) ReadBuckets(ns []tree.Node, out []block.Bucket) error {
	if len(ns) != len(out) {
		return fmt.Errorf("storage: bulk read of %d nodes into %d slots", len(ns), len(out))
	}
	// Same-kind serialization: rdMu owns the read staging (rdCt, rdPt)
	// for the whole call, so any number of concurrent bulk readers are
	// safe. Results are caller-owned (DecodeBucket allocates), so they
	// survive the next call.
	m.rdMu.Lock()
	defer m.rdMu.Unlock()
	m.mu.Lock()
	for _, n := range ns {
		if !m.tr.ValidNode(n) {
			m.mu.Unlock()
			return fmt.Errorf("storage: node %d out of range", n)
		}
	}
	m.cnt.BucketReads += uint64(len(ns))
	m.rdCt = growRefs(m.rdCt, len(ns))
	cts := m.rdCt
	for i, n := range ns {
		cts[i] = m.data[n] // nil = never written (all dummies)
	}
	m.mu.Unlock()
	if !m.bulkParallel(len(ns)) {
		m.rdPt = growSlots(m.rdPt, 1, m.geo.BucketSize())
		pt := m.rdPt[0]
		for i := range ns {
			out[i] = block.Bucket{}
			bk, err := m.decodeBucket(ns[i], cts[i], pt)
			if err != nil {
				return err
			}
			out[i] = bk
		}
		return nil
	}
	m.rdPt = growSlots(m.rdPt, len(ns), m.geo.BucketSize())
	pts := m.rdPt
	return par.ForEach(m.bulkWorkers, len(ns), func(i int) error {
		out[i] = block.Bucket{}
		bk, err := m.decodeBucket(ns[i], cts[i], pts[i])
		if err != nil {
			return err
		}
		out[i] = bk
		return nil
	})
}

// readBucketBody is the counting-free core of ReadBucket: decrypt into
// pt, decode, and plausibility-check. Caller holds mu (the map lookup
// requires it). pt must be one bucket long and owned by the caller.
func (m *Mem) readBucketBody(n tree.Node, pt []byte) (block.Bucket, error) {
	return m.decodeBucket(n, m.data[n], pt)
}

// decodeBucket opens and decodes one sealed bucket image. ct is the
// node's ciphertext (nil = never written); pt is caller-owned staging.
// Runs lock-free: the caller guarantees ct's backing is not being
// concurrently re-sealed (disjointness contract).
func (m *Mem) decodeBucket(n tree.Node, ct, pt []byte) (block.Bucket, error) {
	return decodeSealed(m.eng, m.geo, m.tr, n, ct, pt)
}

// decodeSealed is the shared open+decode+plausibility core behind Mem
// and Disk reads. ct nil means never written (all dummies); pt is
// caller-owned staging one bucket long.
func decodeSealed(eng *crypt.Engine, geo block.Geometry, tr tree.Tree, n tree.Node, ct, pt []byte) (block.Bucket, error) {
	if ct == nil {
		return block.Bucket{}, nil // never-written bucket: all dummies
	}
	if err := eng.Open(pt, ct); err != nil {
		return block.Bucket{}, corruptf("storage: bucket %d unreadable (%v)", n, err)
	}
	bk, err := geo.DecodeBucket(pt)
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

// WriteBuckets implements BulkBackend. The map is touched only under
// mu: ciphertext slots are claimed (and grown) up front, the
// encode+Seal work fans out into those disjoint slots — ns must be
// distinct, which path segments are by construction — and the results
// are published back under the lock. Claiming reuses each node's
// existing backing, so after the tree's first full traversal writes
// stop allocating; a concurrent disjoint bulk read never observes
// these backings (its nodes are different, hence different slices).
func (m *Mem) WriteBuckets(ns []tree.Node, bks []block.Bucket) error {
	if len(ns) != len(bks) {
		return fmt.Errorf("storage: bulk write of %d nodes with %d buckets", len(ns), len(bks))
	}
	// Same-kind serialization: wrMu owns the write staging (wrCt, wrPt)
	// for the whole call (see ReadBuckets).
	m.wrMu.Lock()
	defer m.wrMu.Unlock()
	m.mu.Lock()
	for _, n := range ns {
		if !m.tr.ValidNode(n) {
			m.mu.Unlock()
			return fmt.Errorf("storage: node %d out of range", n)
		}
	}
	m.cnt.BucketWrites += uint64(len(ns))
	m.wrCt = growRefs(m.wrCt, len(ns))
	cts := m.wrCt
	need := crypt.SealedSize(m.geo.BucketSize())
	for i, n := range ns {
		ct := m.data[n]
		if cap(ct) < need {
			ct = make([]byte, need)
		}
		cts[i] = ct[:need]
	}
	m.mu.Unlock()
	var err error
	if !m.bulkParallel(len(ns)) {
		m.wrPt = growSlots(m.wrPt, 1, m.geo.BucketSize())
		pt := m.wrPt[0]
		for i := range ns {
			if err = m.geo.EncodeBucket(pt, &bks[i]); err != nil {
				break
			}
			if err = m.eng.Seal(cts[i], pt); err != nil {
				break
			}
		}
	} else {
		m.wrPt = growSlots(m.wrPt, len(ns), m.geo.BucketSize())
		pts := m.wrPt
		err = par.ForEach(m.bulkWorkers, len(ns), func(i int) error {
			if err := m.geo.EncodeBucket(pts[i], &bks[i]); err != nil {
				return err
			}
			return m.eng.Seal(cts[i], pts[i])
		})
	}
	if err != nil {
		// A subset of the slots may hold half-sealed bytes; publishing
		// nothing keeps the map consistent with the last success, and the
		// caller fail-stops anyway.
		return err
	}
	m.mu.Lock()
	for i, n := range ns {
		m.data[n] = cts[i]
	}
	m.mu.Unlock()
	return nil
}

// writeBucketBody is the counting-free core of WriteBucket: encode into
// pt and re-seal into the bucket's existing ciphertext slot. Caller
// holds mu.
func (m *Mem) writeBucketBody(n tree.Node, b *block.Bucket, pt []byte) error {
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
