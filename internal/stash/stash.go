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
// # Payload ownership
//
// Every payload a resident block holds belongs to the stash, except the
// shared read-only block.ZeroPayload of a never-written block. Put takes
// ownership of the block it is given. PutBucket copies each payload,
// because a bucket read from storage views the backend's staging, valid
// only until its next call. Eviction hands a block and its payload to
// the caller, who writes it to a bucket and then hands the payload back
// with Recycle, once the write has landed; PutBucket copies into such
// recycled buffers before it allocates, and a resident replaced by
// PutBucket is recycled too. The free list holds at most one path's
// worth of buffers, (L+1)·Z, the most one refill can hand back, so
// buffers that outnumber the steady state go to the garbage collector.
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

	free    [][]byte // recycled payload buffers, reused by PutBucket
	freeCap int      // bound on len(free): (L+1)·Z

	maxOccupancy  int
	overflowCount uint64
	samples       uint64
	occupancySum  uint64
}

// New creates a stash for the given tree geometry and bucket capacity z.
// capacity is the paper's C (e.g. 200 blocks); occupancy beyond it after
// an access is counted as an overflow event rather than a hard failure,
// matching how stash overflow probability is studied in the Path ORAM
// literature.
func New(tr tree.Tree, z, capacity int) *Stash {
	return &Stash{tr: tr, capacity: capacity, index: make(map[uint64]int32),
		freeCap: int(tr.Levels()) * z}
}

// Get returns the block with the given address, if present.
func (s *Stash) Get(addr uint64) (block.Block, bool) {
	i, ok := s.index[addr]
	if !ok {
		return block.Block{}, false
	}
	return s.blocks[i], true
}

// Put inserts or replaces a block, taking ownership of b.Data. Dummy
// blocks are never stored.
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

// PutBucket inserts every real block of a bucket read from storage,
// copying each payload into a buffer the stash owns. A block that
// replaces a resident (the last put wins) recycles the resident's
// buffer. Blocks without a payload (metadata-only backends) are stored
// as they are.
func (s *Stash) PutBucket(bk *block.Bucket) {
	for _, b := range bk.Blocks {
		if b.IsDummy() {
			continue
		}
		if i, ok := s.index[b.Addr]; ok {
			s.recycle(s.blocks[i].Data)
		}
		if len(b.Data) > 0 {
			b.Data = s.copyPayload(b.Data)
		}
		s.Put(b)
	}
}

// copyPayload copies p into a recycled buffer, or a new one when none
// fits.
func (s *Stash) copyPayload(p []byte) []byte {
	var buf []byte
	if n := len(s.free); n > 0 {
		buf = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	}
	if cap(buf) < len(p) {
		buf = make([]byte, len(p))
	}
	buf = buf[:len(p)]
	copy(buf, p)
	return buf
}

// Recycle hands back the payloads of blocks that left the stash through
// EvictAppend, once the bucket write holding them has landed: a failed
// write keeps them, because its retry writes the same blocks. The
// caller must hold no other reference to the payloads.
func (s *Stash) Recycle(blocks []block.Block) {
	for i := range blocks {
		s.recycle(blocks[i].Data)
	}
}

// recycle puts one payload buffer on the free list, unless it is absent
// or the shared zero payload, or the list is full.
func (s *Stash) recycle(p []byte) {
	if cap(p) == 0 || block.AliasesZero(p) || len(s.free) >= s.freeCap {
		return
	}
	s.free = append(s.free, p)
}

// FreeBuffers returns how many recycled payload buffers the stash holds
// for reuse.
func (s *Stash) FreeBuffers() int { return len(s.free) }

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
// same blocks, no block is a dummy or has an out-of-range label, and
// payload ownership holds: no two residents share a payload buffer, no
// free buffer is still a resident's, the free list holds no zero
// payload, and it stays within its bound.
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
	if len(s.free) > s.freeCap {
		return fmt.Errorf("stash: %d free buffers, bound %d", len(s.free), s.freeCap)
	}
	owner := make(map[*byte]string, len(s.blocks)+len(s.free))
	claim := func(p []byte, who string) error {
		if cap(p) == 0 {
			return nil
		}
		first := &p[:1][0]
		if prev, dup := owner[first]; dup {
			return fmt.Errorf("stash: %s and %s share a payload buffer", prev, who)
		}
		owner[first] = who
		return nil
	}
	for _, b := range s.blocks {
		if block.AliasesZero(b.Data) {
			continue // never-written blocks share the read-only zero payload
		}
		if err := claim(b.Data, fmt.Sprintf("block %d", b.Addr)); err != nil {
			return err
		}
	}
	for i, p := range s.free {
		if block.AliasesZero(p) {
			return fmt.Errorf("stash: free buffer %d is the shared zero payload", i)
		}
		if err := claim(p, fmt.Sprintf("free buffer %d", i)); err != nil {
			return err
		}
	}
	return nil
}
