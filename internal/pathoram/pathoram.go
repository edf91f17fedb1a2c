// Package pathoram implements the baseline Path ORAM controller of §2.3:
// per request, a full root-to-leaf path is read into the stash and then
// re-filled leaf-to-root with as many eligible stash blocks as fit.
//
// The package is split in two layers:
//
//   - Controller exposes label-driven primitives (read/write a path or a
//     path *segment*, fetch-and-relabel a block). Fork Path
//     (internal/fork) and the recursive construction (internal/recursion)
//     are built from these primitives.
//   - ORAM is the self-contained baseline device: Controller plus an
//     on-chip position map, performing the exact Step 1–5 flow.
package pathoram

import (
	"errors"
	"fmt"

	"forkoram/internal/block"
	"forkoram/internal/posmap"
	"forkoram/internal/rng"
	"forkoram/internal/stash"
	"forkoram/internal/storage"
	"forkoram/internal/tree"
)

// Op distinguishes reads from writes at the ORAM interface. Both cause the
// same memory traffic (that is the point of ORAM).
type Op int

// ORAM operations.
const (
	OpRead Op = iota
	OpWrite
)

// ErrStopped is returned by accesses after a fatal controller error.
var ErrStopped = errors.New("pathoram: controller stopped")

// Access describes one ORAM request as revealed on the memory bus: the
// accessed label and the buckets requested from memory (before on-chip
// bucket caches filter them). The adversary model sees exactly this plus
// timing.
type Access struct {
	Label      tree.Label
	ReadNodes  []tree.Node
	WriteNodes []tree.Node
	Dummy      bool
}

// DefaultRetries is the bounded retry budget applied when Config.Retries
// is zero: up to 3 additional attempts per failed bucket access.
const DefaultRetries = 3

// Config parameterizes a Controller.
type Config struct {
	Tree          tree.Tree
	StashCapacity int  // paper's C, e.g. 200
	TrackData     bool // false for metadata-only timing runs
	// Retries bounds how many additional attempts a transient storage
	// failure (storage.ErrTransient) gets before the controller
	// fail-stops. 0 means DefaultRetries; negative disables retrying.
	// Retries are oblivious by construction: a retry re-issues the read
	// or write of the *same* bucket the adversary already saw requested,
	// and whether it happens depends only on (public) storage behaviour,
	// never on the access's secret address or payload.
	Retries int
}

// Controller implements the label-driven Path ORAM mechanics over a
// storage backend (optionally decorated by on-chip bucket caches).
type Controller struct {
	tr      tree.Tree
	z       int
	store   storage.Backend
	stash   *stash.Stash
	track   bool
	geo     block.Geometry
	err     error
	retries int

	evictBuf []block.Block // scratch for path refills; reused every bucket write

	// bulk is non-nil when the backend supports grouped bucket access.
	// ReadRange/WriteRange then hand the whole path segment over in one
	// call; WriteLevel cannot (Fork Path's dummy-request replacement
	// re-targets between levels).
	bulk       storage.BulkBackend
	bucketsBuf []block.Bucket  // bulk-read results / bulk-write staging
	evictBufs  [][]block.Block // per-level eviction scratch for bulk writes

	retryStats RetryStats
}

// RetryStats counts the controller's transient-failure handling.
type RetryStats struct {
	// Retried is the number of retry attempts issued (reads + writes).
	Retried uint64
	// Recovered is the number of bucket accesses that failed at least
	// once and then succeeded within the retry budget.
	Recovered uint64
	// Exhausted is the number of bucket accesses abandoned after the
	// full retry budget (each one fail-stops the controller).
	Exhausted uint64
}

// NewController creates a controller. The bucket capacity Z comes from the
// backend geometry.
func NewController(cfg Config, store storage.Backend) (*Controller, error) {
	geo := store.Geometry()
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	// A zero-value Config carries an L=0 single-bucket tree; a real ORAM
	// needs at least two leaves to randomize anything.
	if cfg.Tree.Levels() < 2 {
		return nil, fmt.Errorf("pathoram: tree must have at least 2 levels (got %d; unset Config.Tree?)",
			cfg.Tree.Levels())
	}
	retries := cfg.Retries
	if retries == 0 {
		retries = DefaultRetries
	} else if retries < 0 {
		retries = 0
	}
	bulk, _ := store.(storage.BulkBackend)
	return &Controller{
		tr:      cfg.Tree,
		z:       geo.Z,
		store:   store,
		stash:   stash.New(cfg.Tree, geo.Z, cfg.StashCapacity),
		track:   cfg.TrackData,
		geo:     geo,
		retries: retries,
		bulk:    bulk,
	}, nil
}

// readBucket reads bucket n with bounded oblivious retry on transient
// failures: every attempt targets the same node, so the adversary-visible
// bucket sequence of the enclosing access is unchanged, and non-transient
// errors (corruption, integrity violations) are never retried.
func (c *Controller) readBucket(n tree.Node) (block.Bucket, error) {
	bk, err := c.store.ReadBucket(n)
	if err == nil || !errors.Is(err, storage.ErrTransient) {
		return bk, err
	}
	for r := 0; r < c.retries; r++ {
		c.retryStats.Retried++
		bk, err = c.store.ReadBucket(n)
		if err == nil {
			c.retryStats.Recovered++
			return bk, nil
		}
		if !errors.Is(err, storage.ErrTransient) {
			return bk, err
		}
	}
	c.retryStats.Exhausted++
	return bk, err
}

// writeBucket writes bucket n with the same bounded retry as readBucket.
func (c *Controller) writeBucket(n tree.Node, bk *block.Bucket) error {
	err := c.store.WriteBucket(n, bk)
	if err == nil || !errors.Is(err, storage.ErrTransient) {
		return err
	}
	for r := 0; r < c.retries; r++ {
		c.retryStats.Retried++
		err = c.store.WriteBucket(n, bk)
		if err == nil {
			c.retryStats.Recovered++
			return nil
		}
		if !errors.Is(err, storage.ErrTransient) {
			return err
		}
	}
	c.retryStats.Exhausted++
	return err
}

// Retries returns cumulative transient-retry statistics.
func (c *Controller) Retries() RetryStats { return c.retryStats }

// Tree returns the tree geometry.
func (c *Controller) Tree() tree.Tree { return c.tr }

// Z returns the bucket capacity.
func (c *Controller) Z() int { return c.z }

// Stash exposes the stash for invariant checks and statistics.
func (c *Controller) Stash() *stash.Stash { return c.stash }

// ReadRange loads the buckets of path-label at levels [fromLevel, L] into
// the stash and returns the nodes read. fromLevel = 0 reads the whole
// path; a positive fromLevel skips the fork-handle prefix already held in
// the stash (§3.2 Step 3).
func (c *Controller) ReadRange(label tree.Label, fromLevel uint, dst []tree.Node) ([]tree.Node, error) {
	if c.err != nil {
		return dst, c.err
	}
	if c.bulk != nil {
		return c.readRangeBulk(label, fromLevel, dst)
	}
	for lvl := fromLevel; lvl <= c.tr.LeafLevel(); lvl++ {
		n := c.tr.NodeAt(label, lvl)
		bk, err := c.readBucket(n)
		if err != nil {
			c.err = err
			return dst, err
		}
		c.stash.PutBucket(&bk)
		dst = append(dst, n)
	}
	return dst, nil
}

// readRangeBulk hands the whole segment to the backend in one call and
// stashes the results afterwards — in root-to-leaf order, exactly like
// the per-bucket loop. The order matters: the tree may briefly hold two
// copies of the same address along one path (a stale shallower one and
// the current deeper one), and PutBucket's last-put-wins map semantics
// resolve the race in favour of the deepest copy only if buckets arrive
// root first.
func (c *Controller) readRangeBulk(label tree.Label, fromLevel uint, dst []tree.Node) ([]tree.Node, error) {
	start := len(dst)
	for lvl := fromLevel; lvl <= c.tr.LeafLevel(); lvl++ {
		dst = append(dst, c.tr.NodeAt(label, lvl))
	}
	ns := dst[start:]
	if cap(c.bucketsBuf) < len(ns) {
		c.bucketsBuf = make([]block.Bucket, len(ns))
	}
	out := c.bucketsBuf[:len(ns)]
	if err := c.bulk.ReadBuckets(ns, out); err != nil {
		c.err = err
		return dst[:start], err
	}
	for i := range out {
		c.stash.PutBucket(&out[i])
	}
	return dst, nil
}

// WriteRange re-fills the buckets of path-label at levels [fromLevel, L],
// in leaf-to-root order (the refill direction that dummy-request
// replacement depends on), greedily evicting eligible stash blocks.
// fromLevel = 0 rewrites the whole path; a positive fromLevel leaves the
// overlapped prefix in the stash for the next request (§3.2 Step 5).
// It returns the nodes written, in write order.
func (c *Controller) WriteRange(label tree.Label, fromLevel uint, dst []tree.Node) ([]tree.Node, error) {
	if c.err != nil {
		return dst, c.err
	}
	if c.bulk != nil {
		return c.writeRangeBulk(label, fromLevel, dst)
	}
	for i := int(c.tr.LeafLevel()); i >= int(fromLevel); i-- {
		n := c.tr.NodeAt(label, uint(i))
		if err := c.refill(n); err != nil {
			return dst, err
		}
		dst = append(dst, n)
	}
	return dst, nil
}

// writeRangeBulk plans every eviction first — sequentially, leaf to
// root, because each EvictAppend consumes stash blocks and the greedy
// assignment must match the per-bucket loop exactly — then hands all
// buckets to the backend in one call. Eviction scratch is per level so
// the planned buckets stay alive until the write lands, and their
// payloads go back to the stash only then. On a bulk-write failure the
// stash has already surrendered the planned blocks, so the controller
// fail-stops (c.err), exactly the contract a mid-loop per-bucket failure
// gives the layers above.
func (c *Controller) writeRangeBulk(label tree.Label, fromLevel uint, dst []tree.Node) ([]tree.Node, error) {
	start := len(dst)
	levels := int(c.tr.LeafLevel()) - int(fromLevel) + 1
	if cap(c.evictBufs) < levels {
		grown := make([][]block.Block, levels)
		copy(grown, c.evictBufs)
		c.evictBufs = grown
	}
	c.evictBufs = c.evictBufs[:cap(c.evictBufs)]
	if cap(c.bucketsBuf) < levels {
		c.bucketsBuf = make([]block.Bucket, levels)
	}
	bks := c.bucketsBuf[:levels]
	for i := 0; i < levels; i++ {
		lvl := uint(int(c.tr.LeafLevel()) - i)
		n := c.tr.NodeAt(label, lvl)
		c.evictBufs[i] = c.stash.EvictAppend(c.evictBufs[i][:0], n, c.z)
		bks[i] = block.Bucket{Blocks: c.evictBufs[i]}
		dst = append(dst, n)
	}
	if err := c.bulk.WriteBuckets(dst[start:], bks); err != nil {
		c.err = err
		return dst[:start], err
	}
	for i := range bks {
		c.stash.Recycle(bks[i].Blocks)
	}
	return dst, nil
}

// WriteLevel re-fills the single bucket of path-label at the given level,
// greedily evicting eligible stash blocks. Fork Path's write phase calls
// this one level at a time (leaf to root) so that dummy-request
// replacement can re-target the refill between bucket writes.
func (c *Controller) WriteLevel(label tree.Label, level uint) (tree.Node, error) {
	if c.err != nil {
		return 0, c.err
	}
	n := c.tr.NodeAt(label, level)
	if err := c.refill(n); err != nil {
		return 0, err
	}
	return n, nil
}

// refill writes bucket n with the eligible stash blocks, greedily, and
// hands their payloads back to the stash once the write has landed. A
// failed write fail-stops the controller.
func (c *Controller) refill(n tree.Node) error {
	c.evictBuf = c.stash.EvictAppend(c.evictBuf[:0], n, c.z)
	bk := block.Bucket{Blocks: c.evictBuf}
	if err := c.writeBucket(n, &bk); err != nil {
		c.err = err
		return err
	}
	c.stash.Recycle(c.evictBuf)
	return nil
}

// FetchBlock performs Step 4 for one request: locates the block in the
// stash (it must have been brought in by ReadRange unless it is a first
// touch), applies the operation, relabels it to newLabel, and returns a
// copy of the resulting payload (nil when data tracking is off).
func (c *Controller) FetchBlock(op Op, addr uint64, newLabel tree.Label, data []byte) ([]byte, error) {
	if c.err != nil {
		return nil, c.err
	}
	if addr == block.DummyAddr {
		return nil, fmt.Errorf("pathoram: reserved address")
	}
	b, ok := c.stash.Get(addr)
	if !ok {
		// First-ever touch: the block does not exist in the tree yet.
		// Materialize a zero block, as real controllers do for
		// never-written memory. The payload is the shared read-only zero
		// buffer; any mutation below copies it out first.
		b = block.Block{Addr: addr}
		if c.track {
			b.Data = block.ZeroPayload(c.geo.PayloadSize)
		}
	}
	b.Label = newLabel
	if op == OpWrite && c.track {
		if len(data) != c.geo.PayloadSize {
			return nil, fmt.Errorf("pathoram: write payload %d bytes, want %d", len(data), c.geo.PayloadSize)
		}
		if block.AliasesZero(b.Data) {
			b.Data = make([]byte, c.geo.PayloadSize)
		}
		copy(b.Data, data)
	}
	c.stash.Put(b)
	if !c.track {
		return nil, nil
	}
	out := make([]byte, len(b.Data))
	copy(out, b.Data)
	return out, nil
}

// EndAccess records stash statistics for one completed request.
func (c *Controller) EndAccess() { c.stash.EndAccess() }

// Err returns the first fatal error, if any.
func (c *Controller) Err() error { return c.err }

// ORAM is the baseline (non-recursive) Path ORAM device: Controller plus
// position map. Each Access performs the full Step 1–5 flow over a
// complete path.
type ORAM struct {
	ctl *Controller
	pos *posmap.Map
	rnd *rng.Source

	readBuf  []tree.Node
	writeBuf []tree.Node
}

// New creates a baseline Path ORAM.
func New(cfg Config, store storage.Backend, rnd *rng.Source) (*ORAM, error) {
	ctl, err := NewController(cfg, store)
	if err != nil {
		return nil, err
	}
	return &ORAM{
		ctl: ctl,
		pos: posmap.New(cfg.Tree, rnd),
		rnd: rnd,
	}, nil
}

// Controller exposes the underlying controller (stash stats etc.).
func (o *ORAM) Controller() *Controller { return o.ctl }

// PositionMap exposes the position map for invariant checks.
func (o *ORAM) PositionMap() *posmap.Map { return o.pos }

// Access performs one ORAM request. For OpWrite, data must be a full
// payload (ignored when data tracking is off). The returned payload is the
// block contents after the operation. The returned Access record is what
// the adversary observes; its node slices are reused by the next access,
// so callers that keep them must copy.
func (o *ORAM) Access(op Op, addr uint64, data []byte) ([]byte, Access, error) {
	// Step 1: stash hit returns immediately with no memory access; the
	// block is still remapped so its label stays fresh.
	if _, ok := o.ctl.stash.Get(addr); ok {
		_, _, next := o.pos.Remap(addr)
		out, err := o.ctl.FetchBlock(op, addr, next, data)
		if err != nil {
			return nil, Access{}, err
		}
		return out, Access{}, nil
	}
	// Step 2: look up and remap.
	oldLabel, _, newLabel := o.pos.Remap(addr)
	acc := Access{Label: oldLabel}
	var err error
	// Step 3: read the full path.
	o.readBuf, err = o.ctl.ReadRange(oldLabel, 0, o.readBuf[:0])
	if err != nil {
		return nil, Access{}, err
	}
	acc.ReadNodes = o.readBuf
	// Step 4: fetch, mutate, relabel.
	out, err := o.ctl.FetchBlock(op, addr, newLabel, data)
	if err != nil {
		return nil, Access{}, err
	}
	// Step 5: refill the full path.
	o.writeBuf, err = o.ctl.WriteRange(oldLabel, 0, o.writeBuf[:0])
	if err != nil {
		return nil, Access{}, err
	}
	acc.WriteNodes = o.writeBuf
	o.ctl.EndAccess()
	return out, acc, nil
}

// DummyAccess traverses a uniformly random path without serving any block,
// exactly as a real request would appear; used for timing-channel
// protection when there is no pending LLC request (§2.3, Figure 1(c)).
func (o *ORAM) DummyAccess() (Access, error) {
	label := o.pos.Random()
	acc := Access{Label: label, Dummy: true}
	var err error
	o.readBuf, err = o.ctl.ReadRange(label, 0, o.readBuf[:0])
	if err != nil {
		return Access{}, err
	}
	acc.ReadNodes = o.readBuf
	o.writeBuf, err = o.ctl.WriteRange(label, 0, o.writeBuf[:0])
	if err != nil {
		return Access{}, err
	}
	acc.WriteNodes = o.writeBuf
	o.ctl.EndAccess()
	return acc, nil
}
