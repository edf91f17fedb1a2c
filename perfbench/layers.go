package main

import (
	"sync"
	"sync/atomic"
	"time"

	"forkoram"
	"forkoram/internal/block"
	"forkoram/internal/storage"
	"forkoram/internal/tree"
)

// Span kinds: the client call plus one per wrapped layer boundary.
const (
	spanCall uint8 = iota
	spanWALAppend
	spanWALSync
	spanStorageRead
	spanStorageWrite
	spanCkptSave
	spanCkptClone
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"client.call", "wal.append", "wal.sync", "storage.read", "storage.write", "ckpt.save", "ckpt.clone",
}

// span is one timed call at a layer boundary. owner is the client index
// for a client call and the shard index for a layer call; n is the ops
// of a client call or the buckets of a storage call.
type span struct {
	start int64 // ns since the tracer's epoch
	dur   int64
	n     uint32
	kind  uint8
	owner uint8
}

// spanChunk bounds one allocation of the span log, so a long traced
// phase grows it without copying what is already recorded.
const spanChunk = 1 << 16

// tracer keeps spans in memory while on; they are written out when the
// run ends.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	mu     sync.Mutex
	chunks [][]span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// stamp returns t as ns since the epoch.
func (t *tracer) stamp(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// begin starts timing one call; on reports whether tracing is on, so
// an untraced run pays no clock reads.
func (t *tracer) begin() (t0 time.Time, on bool) {
	if !t.on.Load() {
		return time.Time{}, false
	}
	return time.Now(), true
}

// end logs the span begun at t0 if tracing was on at its start.
func (t *tracer) end(on bool, kind, owner uint8, n int, t0 time.Time) {
	if on {
		t.record(kind, owner, n, t0, time.Now())
	}
}

// record logs a span covering [t0, t1).
func (t *tracer) record(kind, owner uint8, n int, t0, t1 time.Time) {
	s := span{start: t.stamp(t0), dur: int64(t1.Sub(t0)), n: uint32(n), kind: kind, owner: owner}
	t.mu.Lock()
	if k := len(t.chunks); k == 0 || len(t.chunks[k-1]) == spanChunk {
		t.chunks = append(t.chunks, make([]span, 0, spanChunk))
	}
	last := &t.chunks[len(t.chunks)-1]
	*last = append(*last, s)
	t.mu.Unlock()
}

// spans returns every recorded span. Call once the traced phase is over.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
}

// Layer counters, kept whether or not tracing is on (an atomic add per
// call): write_amp needs them in untraced runs.
const (
	cWALAppends = iota
	cWALBytes
	cWALSyncs
	cTraversals      // Fork tree traversals, dummies included (Observer calls)
	cDummies         // the dummy ones among them
	cPathReads       // bulk ReadBuckets calls: one per traversal that reads a bucket
	cPathReadBuckets // buckets those calls read
	cBucketReads     // every bucket read, bulk or single
	cBucketWrites    // every bucket written, bulk or single
	cCkptSaves
	cCkptBytes
	numCounters
)

// counts is a snapshot of layer counters.
type counts [numCounters]uint64

func (c counts) sub(o counts) counts {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// shardLayers wraps one shard's journal store, bucket medium and
// checkpoint store, timing each from outside through its public
// interface.
type shardLayers struct {
	idx uint8
	tr  *tracer

	n [numCounters]atomic.Uint64

	// A checkpoint clones the medium with one Ciphertext call per bucket;
	// the run of calls is logged as one ckpt.clone span, closed by the
	// Save that follows it.
	cloneMu             sync.Mutex
	cloneOpen           bool
	cloneStart, cloneAt time.Time
	cloneCalls          int

	wal    *timedWAL
	medium *timedMedium
	ckpt   *timedCheckpoints
}

func newShardLayers(idx int, tr *tracer, w forkoram.WALStore, m storage.Medium, c forkoram.CheckpointStore) *shardLayers {
	sh := &shardLayers{idx: uint8(idx), tr: tr}
	sh.wal = &timedWAL{inner: w, sh: sh}
	sh.medium = &timedMedium{Medium: m, sh: sh}
	sh.ckpt = &timedCheckpoints{inner: c, sh: sh}
	return sh
}

func (sh *shardLayers) counts() counts {
	var c counts
	for i := range c {
		c[i] = sh.n[i].Load()
	}
	return c
}

// observe is the device's Observer hook. The Fork engine has no
// interface of its own to wrap, and a traversal whose label repeats the
// previous one reads no bucket, so traversals are counted here rather
// than from bulk path reads.
func (sh *shardLayers) observe(_ uint64, dummy bool, _, _ []uint64) {
	sh.n[cTraversals].Add(1)
	if dummy {
		sh.n[cDummies].Add(1)
	}
}

func (sh *shardLayers) noteClone(t0, t1 time.Time) {
	sh.cloneMu.Lock()
	if !sh.cloneOpen {
		sh.cloneOpen, sh.cloneStart, sh.cloneCalls = true, t0, 0
	}
	sh.cloneAt = t1
	sh.cloneCalls++
	sh.cloneMu.Unlock()
}

func (sh *shardLayers) flushClone() {
	sh.cloneMu.Lock()
	if sh.cloneOpen {
		sh.tr.record(spanCkptClone, sh.idx, sh.cloneCalls, sh.cloneStart, sh.cloneAt)
		sh.cloneOpen = false
	}
	sh.cloneMu.Unlock()
}

// timedWAL wraps the journal's durability substrate (ServiceConfig.WAL).
type timedWAL struct {
	inner forkoram.WALStore
	sh    *shardLayers
}

func (w *timedWAL) Append(p []byte) error {
	t0, on := w.sh.tr.begin()
	err := w.inner.Append(p)
	w.sh.tr.end(on, spanWALAppend, w.sh.idx, 0, t0)
	w.sh.n[cWALAppends].Add(1)
	w.sh.n[cWALBytes].Add(uint64(len(p)))
	return err
}

func (w *timedWAL) Sync() error {
	t0, on := w.sh.tr.begin()
	err := w.inner.Sync()
	w.sh.tr.end(on, spanWALSync, w.sh.idx, 0, t0)
	w.sh.n[cWALSyncs].Add(1)
	return err
}

func (w *timedWAL) Load() ([]byte, error)       { return w.inner.Load() }
func (w *timedWAL) Reset() error                { return w.inner.Reset() }
func (w *timedWAL) TruncateTail(keep int) error { return w.inner.TruncateTail(keep) }

// timedMedium wraps the base bucket store (DeviceConfig.Storage.Medium).
// It implements storage.Medium in full, so it is also a
// storage.BulkBackend and the controller keeps its bulk path.
type timedMedium struct {
	storage.Medium
	sh *shardLayers
}

func (m *timedMedium) ReadBucket(n tree.Node) (block.Bucket, error) {
	t0, on := m.sh.tr.begin()
	bk, err := m.Medium.ReadBucket(n)
	m.sh.tr.end(on, spanStorageRead, m.sh.idx, 1, t0)
	m.sh.n[cBucketReads].Add(1)
	return bk, err
}

func (m *timedMedium) WriteBucket(n tree.Node, b *block.Bucket) error {
	t0, on := m.sh.tr.begin()
	err := m.Medium.WriteBucket(n, b)
	m.sh.tr.end(on, spanStorageWrite, m.sh.idx, 1, t0)
	m.sh.n[cBucketWrites].Add(1)
	return err
}

func (m *timedMedium) ReadBuckets(ns []tree.Node, out []block.Bucket) error {
	t0, on := m.sh.tr.begin()
	err := m.Medium.ReadBuckets(ns, out)
	m.sh.tr.end(on, spanStorageRead, m.sh.idx, len(ns), t0)
	m.sh.n[cPathReads].Add(1)
	m.sh.n[cPathReadBuckets].Add(uint64(len(ns)))
	m.sh.n[cBucketReads].Add(uint64(len(ns)))
	return err
}

func (m *timedMedium) WriteBuckets(ns []tree.Node, bks []block.Bucket) error {
	t0, on := m.sh.tr.begin()
	err := m.Medium.WriteBuckets(ns, bks)
	m.sh.tr.end(on, spanStorageWrite, m.sh.idx, len(ns), t0)
	m.sh.n[cBucketWrites].Add(uint64(len(ns)))
	return err
}

func (m *timedMedium) Ciphertext(n tree.Node) []byte {
	t0, on := m.sh.tr.begin()
	ct := m.Medium.Ciphertext(n)
	if on {
		m.sh.noteClone(t0, time.Now())
	}
	return ct
}

// timedCheckpoints wraps the checkpoint store (ServiceConfig.Checkpoints).
type timedCheckpoints struct {
	inner forkoram.CheckpointStore
	sh    *shardLayers
}

func (c *timedCheckpoints) Save(ck *forkoram.Checkpoint) error {
	c.sh.flushClone()
	t0, on := c.sh.tr.begin()
	err := c.inner.Save(ck)
	c.sh.tr.end(on, spanCkptSave, c.sh.idx, 0, t0)
	size := len(ck.Snapshot)
	for _, ct := range ck.Medium {
		size += len(ct)
	}
	c.sh.n[cCkptSaves].Add(1)
	c.sh.n[cCkptBytes].Add(uint64(size))
	return err
}

func (c *timedCheckpoints) Load() (*forkoram.Checkpoint, bool, error) { return c.inner.Load() }
