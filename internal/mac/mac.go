// Package mac implements the two on-chip bucket caching schemes the paper
// compares (§3.5, Figure 8):
//
//   - Treetop caching pins the top levels of the ORAM tree in on-chip
//     memory permanently; buckets at those levels never touch DRAM. This
//     is the prior scheme (Phantom) that the paper's merging-aware cache
//     is measured against.
//   - The merging-aware cache (MAC) observes that after path merging the
//     first len_overlap levels never leave the chip anyway (they ride in
//     the stash as the fork handle), so it skips levels below m1 =
//     len_overlap + 1 and spends its capacity on levels [m1, m2], indexed
//     by Equation (1) with LRU replacement. It behaves as a victim cache
//     for write-back buckets: refill writes land in the cache (displaced
//     buckets go to DRAM), and read hits are promoted back to the stash.
//
// Both are storage.Backend decorators; DRAM traffic below them is exactly
// what a storage.Tracer one level down records. Cache contents are a
// deterministic function of the public label sequence, so neither scheme
// affects the ORAM security argument (§3.6).
package mac

import (
	"fmt"

	"forkoram/internal/block"
	"forkoram/internal/cache"
	"forkoram/internal/storage"
	"forkoram/internal/tree"
)

// Stats counts how bucket requests were served.
type Stats struct {
	ReadHits    uint64
	ReadMisses  uint64
	WriteHits   uint64 // writes absorbed without displacing to DRAM
	WriteMisses uint64 // writes that displaced a bucket to DRAM (or bypassed)
}

// Delta returns s - prev, field-wise.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		ReadHits:    s.ReadHits - prev.ReadHits,
		ReadMisses:  s.ReadMisses - prev.ReadMisses,
		WriteHits:   s.WriteHits - prev.WriteHits,
		WriteMisses: s.WriteMisses - prev.WriteMisses,
	}
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.ReadHits += o.ReadHits
	s.ReadMisses += o.ReadMisses
	s.WriteHits += o.WriteHits
	s.WriteMisses += o.WriteMisses
}

// Treetop pins all buckets at levels [0, topLevel] on-chip.
//
// It runs in one of two modes. The paper mode (NewTreetop) is the
// Phantom model: pinned levels live ONLY on chip — their writes never
// reach the inner backend, so DRAM traffic below measures exactly what
// the hardware scheme saves. The write-through mode
// (NewWriteThroughTreetop) is the production RAM tier over a durable
// medium: pinned levels are a cache, every write also lands on the
// inner backend, cached buckets own deep copies of their bytes, and
// misses at pinned levels fill from below. Write-through contents are
// trusted healthy copies — the scrub walker repairs corrupt durable
// frames from them (HealthyBucket).
type Treetop struct {
	inner        storage.Backend
	tr           tree.Tree
	topLevel     int // -1 when capacity holds not even the root
	writeThrough bool
	pinned       map[tree.Node]block.Bucket
	stats        Stats
}

// TreetopLevels returns the deepest fully-pinnable level for a capacity in
// bytes, given the bucket wire size: the largest k with 2^(k+1)-1 buckets
// fitting. Returns -1 if not even the root fits.
func TreetopLevels(capacityBytes int, bucketBytes int) int {
	if bucketBytes <= 0 {
		return -1
	}
	buckets := capacityBytes / bucketBytes
	k := -1
	for (uint64(1)<<(k+2))-1 <= uint64(buckets) {
		k++
	}
	return k
}

// NewTreetop wraps inner with a treetop cache of the given capacity.
func NewTreetop(inner storage.Backend, tr tree.Tree, capacityBytes int) (*Treetop, error) {
	geo := inner.Geometry()
	top := TreetopLevels(capacityBytes, geo.BucketSize())
	if top < 0 {
		return nil, fmt.Errorf("mac: treetop capacity %dB below one bucket (%dB)", capacityBytes, geo.BucketSize())
	}
	if uint(top) > tr.LeafLevel() {
		top = int(tr.LeafLevel())
	}
	return &Treetop{inner: inner, tr: tr, topLevel: top, pinned: make(map[tree.Node]block.Bucket)}, nil
}

// NewWriteThroughTreetop wraps inner with a write-through RAM tier
// pinning the top levels: reads at pinned levels are served from memory
// after a one-time fill, writes always reach the durable medium too.
func NewWriteThroughTreetop(inner storage.Backend, tr tree.Tree, capacityBytes int) (*Treetop, error) {
	t, err := NewTreetop(inner, tr, capacityBytes)
	if err != nil {
		return nil, err
	}
	t.writeThrough = true
	return t, nil
}

// TopLevel returns the deepest pinned level.
func (t *Treetop) TopLevel() int { return t.topLevel }

// WriteThrough reports whether the tier writes through to the inner
// backend (production RAM tier) or absorbs pinned writes (paper model).
func (t *Treetop) WriteThrough() bool { return t.writeThrough }

// copyBucket deep-copies a bucket, payload bytes included: a cached
// copy must not alias caller-owned buffers that will be reused (writes
// retain nothing, per the storage.Backend contract). Metadata-only
// buckets have nil payloads, so only their block slice is copied.
func copyBucket(b *block.Bucket) block.Bucket {
	cp := block.Bucket{Blocks: append([]block.Block(nil), b.Blocks...)}
	for i := range cp.Blocks {
		if cp.Blocks[i].Data != nil {
			cp.Blocks[i].Data = append([]byte(nil), cp.Blocks[i].Data...)
		}
	}
	return cp
}

// ReadBucket implements storage.Backend.
func (t *Treetop) ReadBucket(n tree.Node) (block.Bucket, error) {
	if int(t.tr.Level(n)) <= t.topLevel {
		if !t.writeThrough {
			t.stats.ReadHits++
			return t.pinned[n], nil
		}
		if b, ok := t.pinned[n]; ok {
			t.stats.ReadHits++
			// Hand out a copy: the healthy tier copy must never alias
			// buffers the controller will mutate in place.
			return copyBucket(&b), nil
		}
		// Cold pinned level: fill from the durable medium.
		t.stats.ReadMisses++
		b, err := t.inner.ReadBucket(n)
		if err != nil {
			return block.Bucket{}, err
		}
		t.pinned[n] = copyBucket(&b)
		return b, nil
	}
	t.stats.ReadMisses++
	return t.inner.ReadBucket(n)
}

// WriteBucket implements storage.Backend.
func (t *Treetop) WriteBucket(n tree.Node, b *block.Bucket) error {
	if int(t.tr.Level(n)) <= t.topLevel {
		if t.writeThrough {
			if err := t.inner.WriteBucket(n, b); err != nil {
				return err
			}
			t.stats.WriteHits++
			t.pinned[n] = copyBucket(b)
			return nil
		}
		t.stats.WriteHits++
		t.pinned[n] = copyBucket(b)
		return nil
	}
	t.stats.WriteMisses++
	return t.inner.WriteBucket(n, b)
}

// HealthyBucket returns the tier's cached copy of bucket n (deep copy)
// and whether one exists — the scrub walker's repair source. Only
// write-through tiers hold healthy copies of durable state.
func (t *Treetop) HealthyBucket(n tree.Node) (block.Bucket, bool) {
	if !t.writeThrough || int(t.tr.Level(n)) > t.topLevel {
		return block.Bucket{}, false
	}
	b, ok := t.pinned[n]
	if !ok {
		return block.Bucket{}, false
	}
	return copyBucket(&b), true
}

// Invalidate drops all cached buckets so subsequent reads refill from
// the durable medium. Only meaningful in write-through mode (in the
// paper model the pinned map IS the storage); callers use it after
// mutating the medium out-of-band (compaction, recovery).
func (t *Treetop) Invalidate() {
	if !t.writeThrough {
		return
	}
	t.pinned = make(map[tree.Node]block.Bucket)
}

// Geometry implements storage.Backend.
func (t *Treetop) Geometry() block.Geometry { return t.inner.Geometry() }

// Counters implements storage.Backend.
func (t *Treetop) Counters() storage.Counters { return t.inner.Counters() }

// Stats returns hit/miss counts.
func (t *Treetop) Stats() Stats { return t.stats }

// MAC is the merging-aware cache: a treetop shifted down past the levels
// the fork handle keeps in the stash anyway. Levels [m1, m2] are pinned
// on-chip in full (they never touch DRAM); the leftover capacity forms a
// set-associative LRU partial level at m2+1 whose sets are indexed in the
// spirit of Equation (1) (position within the level modulo the level's
// allocation, scaled by bucket associativity).
type MAC struct {
	inner storage.Backend
	tr    tree.Tree
	m1    uint // first cached level (len_overlap + 1)
	m2    uint // last fully pinned level
	ways  int  // bucket-granular ways per set of the partial level

	pinned  map[tree.Node]block.Bucket
	partial *cache.Cache[block.Bucket] // nil when no leftover capacity
	stats   Stats
}

// MACConfig parameterizes the merging-aware cache.
type MACConfig struct {
	CapacityBytes int
	// M1 is the first cached level, the paper's len_overlap + 1. Levels
	// below it bypass the cache because path merging keeps them on-chip in
	// the stash already.
	M1 uint
	// Ways is the block-granular associativity (paper-style); bucket
	// associativity is max(1, Ways/Z). Default 8.
	Ways int
}

// NewMAC wraps inner with a merging-aware cache.
func NewMAC(inner storage.Backend, tr tree.Tree, cfg MACConfig) (*MAC, error) {
	geo := inner.Geometry()
	if cfg.Ways == 0 {
		cfg.Ways = 8
	}
	if cfg.Ways < 1 {
		return nil, fmt.Errorf("mac: ways must be positive")
	}
	if cfg.M1 > tr.LeafLevel() {
		return nil, fmt.Errorf("mac: m1 %d beyond leaf level %d", cfg.M1, tr.LeafLevel())
	}
	capBuckets := uint64(cfg.CapacityBytes / geo.BucketSize())
	if capBuckets < 1<<cfg.M1 {
		return nil, fmt.Errorf("mac: capacity %dB cannot pin level %d (%d buckets needed)",
			cfg.CapacityBytes, cfg.M1, uint64(1)<<cfg.M1)
	}
	// Pin whole levels starting at m1 while they fit.
	m2 := cfg.M1
	used := uint64(1) << cfg.M1
	for m2 < tr.LeafLevel() && used+(uint64(1)<<(m2+1)) <= capBuckets {
		m2++
		used += uint64(1) << m2
	}
	m := &MAC{inner: inner, tr: tr, m1: cfg.M1, m2: m2, pinned: make(map[tree.Node]block.Bucket)}
	// Leftover capacity forms a set-associative partial level at m2+1.
	leftover := capBuckets - used
	bucketWays := cfg.Ways / geo.Z
	if bucketWays < 1 {
		bucketWays = 1
	}
	m.ways = bucketWays
	if m2 < tr.LeafLevel() && leftover >= uint64(bucketWays) {
		sets := int(leftover) / bucketWays
		c, err := cache.New[block.Bucket](sets, bucketWays)
		if err != nil {
			return nil, err
		}
		m.partial = c
	}
	return m, nil
}

// Levels returns the fully pinned level range [m1, m2].
func (m *MAC) Levels() (uint, uint) { return m.m1, m.m2 }

// PartialSets returns the number of sets of the partial level at m2+1
// (0 when there is no leftover capacity).
func (m *MAC) PartialSets() int {
	if m.partial == nil {
		return 0
	}
	return m.partial.Sets()
}

// set indexes the partial level in the spirit of Equation (1): the bucket
// position within its level, modulo the level's set allocation (bucket
// associativity folds Z blocks per way group).
func (m *MAC) set(y uint64) int {
	return int(y % uint64(m.partial.Sets()))
}

// ReadBucket implements storage.Backend. Pinned levels are always served
// on-chip; a partial-level hit removes the bucket (its blocks are being
// promoted back to the stash; a stale copy must not linger).
func (m *MAC) ReadBucket(n tree.Node) (block.Bucket, error) {
	lvl := m.tr.Level(n)
	switch {
	case lvl >= m.m1 && lvl <= m.m2:
		m.stats.ReadHits++
		return m.pinned[n], nil
	case m.partial != nil && lvl == m.m2+1:
		if b, hit := m.partial.Remove(m.set(m.tr.PositionInLevel(n)), n); hit {
			m.stats.ReadHits++
			return b, nil
		}
	}
	m.stats.ReadMisses++
	return m.inner.ReadBucket(n)
}

// WriteBucket implements storage.Backend. Writes to pinned levels are
// absorbed; partial-level writes may displace an LRU victim to DRAM;
// anything else bypasses.
func (m *MAC) WriteBucket(n tree.Node, b *block.Bucket) error {
	lvl := m.tr.Level(n)
	switch {
	case lvl >= m.m1 && lvl <= m.m2:
		m.stats.WriteHits++
		m.pinned[n] = copyBucket(b)
		return nil
	case m.partial != nil && lvl == m.m2+1:
		evKey, evVal, evicted := m.partial.Put(m.set(m.tr.PositionInLevel(n)), n, copyBucket(b))
		if evicted {
			m.stats.WriteMisses++
			return m.inner.WriteBucket(evKey, &evVal)
		}
		m.stats.WriteHits++
		return nil
	}
	m.stats.WriteMisses++
	return m.inner.WriteBucket(n, b)
}

// Geometry implements storage.Backend.
func (m *MAC) Geometry() block.Geometry { return m.inner.Geometry() }

// Counters implements storage.Backend.
func (m *MAC) Counters() storage.Counters { return m.inner.Counters() }

// Stats returns hit/miss counts.
func (m *MAC) Stats() Stats { return m.stats }

var (
	_ storage.Backend = (*Treetop)(nil)
	_ storage.Backend = (*MAC)(nil)
)
