// Package stash implements the ORAM controller's on-chip stash: a small
// trusted buffer that temporarily holds data blocks between the read and
// write phases of ORAM requests (§2.3). Under Fork Path the stash also
// holds the blocks of the "fork handle" — buckets overlapped by
// consecutive paths that are deliberately neither written back nor
// re-read (§3.2).
//
// The stash enforces the Path ORAM invariant from the controller side: a
// block mapped to leaf l is either here or on path-l in external memory.
// Eviction is the standard greedy leaf-to-root fill: for each bucket on
// the written path segment, take as many resident-eligible blocks as fit.
//
// # Layout
//
// Blocks live in one dense slice, in no particular order, with an
// address index beside it; Remove swap-deletes. Eviction scans the slice
// once per written bucket, which is contiguous memory, and picks among
// the eligible blocks by ascending address. Nothing the stash returns
// depends on the slice's order: eviction and ForEach both sort.
//
// # Concurrency contract
//
// The stash itself is single-threaded: no method takes a lock, and no
// method may be called concurrently with any other. A controller owns
// its stash and runs its accesses one after another on one goroutine.
package stash

import (
	"cmp"
	"fmt"
	"slices"

	"forkoram/internal/block"
	"forkoram/internal/tree"
)

// Stash holds data blocks keyed by program address.
type Stash struct {
	tr       tree.Tree
	capacity int              // soft capacity C; 0 disables overflow accounting
	blocks   []block.Block    // resident blocks, dense, in no particular order
	index    map[uint64]int32 // address -> position in blocks

	addrScratch []uint64 // reused by EvictAppend

	maxOccupancy  int
	overflowCount uint64
	samples       uint64
	occupancySum  uint64
}

// New creates a stash for the given tree geometry. capacity is the
// paper's C (e.g. 200 blocks); occupancy beyond it after an access is
// counted as an overflow event rather than a hard failure, matching how
// stash overflow probability is studied in the Path ORAM literature.
func New(tr tree.Tree, capacity int) *Stash {
	return &Stash{tr: tr, capacity: capacity, index: make(map[uint64]int32)}
}

// Get returns the block with the given address, if present.
func (s *Stash) Get(addr uint64) (block.Block, bool) {
	i, ok := s.index[addr]
	if !ok {
		return block.Block{}, false
	}
	return s.blocks[i], true
}

// Put inserts or replaces a block. Dummy blocks are never stored.
func (s *Stash) Put(b block.Block) {
	if b.IsDummy() {
		return
	}
	if i, ok := s.index[b.Addr]; ok {
		s.blocks[i] = b
		return
	}
	s.index[b.Addr] = int32(len(s.blocks))
	s.blocks = append(s.blocks, b)
	if n := len(s.blocks); n > s.maxOccupancy {
		s.maxOccupancy = n
	}
}

// PutBucket inserts every real block of a bucket.
func (s *Stash) PutBucket(bk *block.Bucket) {
	for _, b := range bk.Blocks {
		s.Put(b)
	}
}

// Remove deletes the block with the given address, if present.
func (s *Stash) Remove(addr uint64) {
	if i, ok := s.index[addr]; ok {
		s.removeAt(i)
	}
}

// removeAt deletes the block at position i by moving the last block
// into its place.
func (s *Stash) removeAt(i int32) {
	last := int32(len(s.blocks) - 1)
	delete(s.index, s.blocks[i].Addr)
	if i != last {
		s.blocks[i] = s.blocks[last]
		s.index[s.blocks[i].Addr] = i
	}
	s.blocks[last] = block.Block{} // drop the payload reference
	s.blocks = s.blocks[:last]
}

// Relabel updates the label of a stash-resident block (Step 4 of the
// access flow). It reports whether the block was present.
func (s *Stash) Relabel(addr uint64, label tree.Label) bool {
	i, ok := s.index[addr]
	if !ok {
		return false
	}
	s.blocks[i].Label = label
	return true
}

// Len returns the current occupancy.
func (s *Stash) Len() int { return len(s.blocks) }

// EvictFor removes and returns up to max blocks eligible to reside in
// bucket n (blocks whose current label's path passes through n).
// Selection among eligible blocks is by ascending address, which keeps
// the choice a function of the stash's contents alone, not of the order
// its slice happens to hold them in; any choice preserves the invariant.
func (s *Stash) EvictFor(n tree.Node, max int) []block.Block {
	return s.EvictAppend(nil, n, max)
}

// EvictAppend is EvictFor with a caller-provided destination: evicted
// blocks are appended to dst (typically a reused scratch slice reset with
// dst[:0]) and the extended slice is returned. It allocates nothing when
// dst has capacity; the address scratch used for deterministic ordering is
// reused across calls.
func (s *Stash) EvictAppend(dst []block.Block, n tree.Node, max int) []block.Block {
	if max <= 0 {
		return dst
	}
	level := s.tr.Level(n)
	addrs := s.addrScratch[:0]
	for i := range s.blocks {
		if s.tr.NodeAt(s.blocks[i].Label, level) == n {
			addrs = append(addrs, s.blocks[i].Addr)
		}
	}
	s.addrScratch = addrs
	if len(addrs) == 0 {
		return dst
	}
	slices.Sort(addrs)
	if len(addrs) > max {
		addrs = addrs[:max]
	}
	for _, addr := range addrs {
		i := s.index[addr]
		dst = append(dst, s.blocks[i])
		s.removeAt(i)
	}
	return dst
}

// EndAccess records occupancy statistics at the end of one ORAM access
// (after the write phase). This is the instant the stash-overflow
// probability is defined over.
func (s *Stash) EndAccess() {
	s.samples++
	s.occupancySum += uint64(len(s.blocks))
	if s.capacity > 0 && len(s.blocks) > s.capacity {
		s.overflowCount++
	}
}

// Stats summarizes stash behaviour over the run.
type Stats struct {
	MaxOccupancy  int     // peak blocks ever held
	MeanOccupancy float64 // mean post-access occupancy
	OverflowRate  float64 // fraction of accesses ending above capacity
	Accesses      uint64
}

// Stats returns accumulated statistics.
func (s *Stash) Stats() Stats {
	st := Stats{MaxOccupancy: s.maxOccupancy, Accesses: s.samples}
	if s.samples > 0 {
		st.MeanOccupancy = float64(s.occupancySum) / float64(s.samples)
		st.OverflowRate = float64(s.overflowCount) / float64(s.samples)
	}
	return st
}

// ResetStats clears accumulated occupancy statistics (e.g. after a
// warmup phase) without touching the stash contents.
func (s *Stash) ResetStats() {
	s.maxOccupancy = len(s.blocks)
	s.overflowCount = 0
	s.samples = 0
	s.occupancySum = 0
}

// ForEach visits all blocks in ascending address order. Used by invariant
// checkers; controllers should not need it.
func (s *Stash) ForEach(f func(b block.Block)) {
	sorted := slices.Clone(s.blocks)
	slices.SortFunc(sorted, func(a, b block.Block) int { return cmp.Compare(a.Addr, b.Addr) })
	for _, b := range sorted {
		f(b)
	}
}

// Validate checks internal consistency: the index and the slice name the
// same blocks, and no block is a dummy or has an out-of-range label.
func (s *Stash) Validate() error {
	if len(s.index) != len(s.blocks) {
		return fmt.Errorf("stash: index holds %d addresses, slice %d blocks", len(s.index), len(s.blocks))
	}
	for addr, i := range s.index {
		if i < 0 || int(i) >= len(s.blocks) {
			return fmt.Errorf("stash: index sends %d to position %d of %d", addr, i, len(s.blocks))
		}
		if b := s.blocks[i]; b.Addr != addr {
			return fmt.Errorf("stash: key %d holds block addressed %d", addr, b.Addr)
		}
	}
	for _, b := range s.blocks {
		if b.IsDummy() {
			return fmt.Errorf("stash: dummy block stored")
		}
		if !s.tr.ValidLabel(b.Label) {
			return fmt.Errorf("stash: block %d has invalid label %d", b.Addr, b.Label)
		}
	}
	return nil
}
