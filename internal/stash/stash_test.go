package stash

import (
	"bytes"
	"cmp"
	"slices"
	"testing"

	"forkoram/internal/block"
	"forkoram/internal/rng"
	"forkoram/internal/tree"
)

func tr() tree.Tree { return tree.MustNew(4) }

func TestPutGetRemove(t *testing.T) {
	s := New(tr(), 4, 10)
	s.Put(block.Block{Addr: 7, Label: 3})
	if b, ok := s.Get(7); !ok || b.Label != 3 {
		t.Fatalf("Get = (%+v,%v)", b, ok)
	}
	s.Remove(7)
	if _, ok := s.Get(7); ok {
		t.Fatal("block survives Remove")
	}
}

func TestPutReplaces(t *testing.T) {
	s := New(tr(), 4, 10)
	s.Put(block.Block{Addr: 1, Label: 2})
	s.Put(block.Block{Addr: 1, Label: 9})
	if s.Len() != 1 {
		t.Fatalf("Len = %d want 1", s.Len())
	}
	if b, _ := s.Get(1); b.Label != 9 {
		t.Fatalf("label %d want 9", b.Label)
	}
}

func TestDummiesNeverStored(t *testing.T) {
	s := New(tr(), 4, 10)
	s.Put(block.Dummy(8))
	if s.Len() != 0 {
		t.Fatal("dummy stored in stash")
	}
	s.PutBucket(&block.Bucket{Blocks: []block.Block{block.Dummy(8), {Addr: 2, Label: 1}}})
	if s.Len() != 1 {
		t.Fatalf("Len = %d want 1", s.Len())
	}
}

func TestRelabel(t *testing.T) {
	s := New(tr(), 4, 10)
	s.Put(block.Block{Addr: 4, Label: 0})
	if !s.Relabel(4, 13) {
		t.Fatal("Relabel missed present block")
	}
	if b, _ := s.Get(4); b.Label != 13 {
		t.Fatalf("label %d want 13", b.Label)
	}
	if s.Relabel(99, 0) {
		t.Fatal("Relabel succeeded for absent block")
	}
}

func TestEvictForSelectsOnlyEligible(t *testing.T) {
	g := tr() // L = 4, leaves 0..15
	s := New(g, 4, 100)
	// Labels 0..15; bucket at level 1 on path-0 is node 1, covering labels 0..7.
	for l := uint64(0); l < 16; l++ {
		s.Put(block.Block{Addr: l, Label: l})
	}
	n := g.NodeAt(0, 1) // left child of root
	out := s.EvictFor(n, 100)
	if len(out) != 8 {
		t.Fatalf("evicted %d blocks want 8", len(out))
	}
	for _, b := range out {
		if b.Label >= 8 {
			t.Fatalf("block with label %d not eligible for node %d", b.Label, n)
		}
	}
	if s.Len() != 8 {
		t.Fatalf("stash left with %d want 8", s.Len())
	}
}

func TestEvictForHonorsMax(t *testing.T) {
	g := tr()
	s := New(g, 4, 100)
	for a := uint64(0); a < 10; a++ {
		s.Put(block.Block{Addr: a, Label: 0})
	}
	out := s.EvictFor(g.Root(), 4)
	if len(out) != 4 {
		t.Fatalf("evicted %d want 4 (Z)", len(out))
	}
	if s.Len() != 6 {
		t.Fatalf("stash %d want 6", s.Len())
	}
	if s.EvictFor(g.Root(), 0) != nil {
		t.Fatal("max=0 must evict nothing")
	}
}

func TestEvictDeterministicOrder(t *testing.T) {
	g := tr()
	run := func() []uint64 {
		s := New(g, 4, 100)
		for _, a := range []uint64{9, 3, 14, 1, 6} {
			s.Put(block.Block{Addr: a, Label: 0})
		}
		var got []uint64
		for _, b := range s.EvictFor(g.Root(), 3) {
			got = append(got, b.Addr)
		}
		return got
	}
	a, b := run(), run()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("lens %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic eviction: %v vs %v", a, b)
		}
	}
	// Ascending address order.
	if a[0] != 1 || a[1] != 3 || a[2] != 6 {
		t.Fatalf("unexpected order %v", a)
	}
}

func TestOverflowAccounting(t *testing.T) {
	s := New(tr(), 4, 2)
	s.Put(block.Block{Addr: 1, Label: 0})
	s.EndAccess() // occupancy 1 <= 2
	s.Put(block.Block{Addr: 2, Label: 0})
	s.Put(block.Block{Addr: 3, Label: 0})
	s.EndAccess() // occupancy 3 > 2
	st := s.Stats()
	if st.Accesses != 2 {
		t.Fatalf("accesses %d want 2", st.Accesses)
	}
	if st.OverflowRate != 0.5 {
		t.Fatalf("overflow rate %v want 0.5", st.OverflowRate)
	}
	if st.MaxOccupancy != 3 {
		t.Fatalf("max occupancy %d want 3", st.MaxOccupancy)
	}
	if st.MeanOccupancy != 2 {
		t.Fatalf("mean occupancy %v want 2", st.MeanOccupancy)
	}
}

func TestUnboundedCapacityNeverOverflows(t *testing.T) {
	s := New(tr(), 4, 0)
	for a := uint64(0); a < 100; a++ {
		s.Put(block.Block{Addr: a, Label: 0})
	}
	s.EndAccess()
	if s.Stats().OverflowRate != 0 {
		t.Fatal("capacity 0 must disable overflow accounting")
	}
}

func TestValidate(t *testing.T) {
	fresh := func() *Stash {
		s := New(tr(), 4, 10)
		s.Put(block.Block{Addr: 1, Label: 3, Data: make([]byte, 8)})
		s.Put(block.Block{Addr: 2, Label: 5, Data: make([]byte, 8)})
		s.Put(block.Block{Addr: 3, Label: 6, Data: block.ZeroPayload(8)})
		s.Put(block.Block{Addr: 4, Label: 7, Data: block.ZeroPayload(8)})
		s.Recycle([]block.Block{{Data: make([]byte, 8)}})
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, c := range []struct {
		name    string
		corrupt func(s *Stash)
	}{
		{"address disagrees with its key", func(s *Stash) { s.blocks[s.index[2]].Addr = 5 }},
		{"out-of-range label", func(s *Stash) { s.blocks[s.index[1]].Label = 16 }},
		{"index and slice disagree", func(s *Stash) { s.blocks = append(s.blocks, block.Block{Addr: 3}) }},
		{"index points past the slice", func(s *Stash) { s.index[2] = 2 }},
		{"two residents share a payload", func(s *Stash) { s.blocks[s.index[2]].Data = s.blocks[s.index[1]].Data }},
		{"a free buffer is a resident's", func(s *Stash) { s.free = append(s.free, s.blocks[s.index[1]].Data) }},
		{"the zero payload is free", func(s *Stash) { s.free = append(s.free, block.ZeroPayload(8)) }},
		{"free list beyond its bound", func(s *Stash) {
			for len(s.free) <= s.freeCap {
				s.free = append(s.free, make([]byte, 8))
			}
		}},
	} {
		s := fresh()
		c.corrupt(s)
		if err := s.Validate(); err == nil {
			t.Fatalf("%s: corrupted stash passed validation", c.name)
		}
	}
}

// TestPutBucketOwnsPayloads pins the payload ownership rules: a bucket
// read from storage is copied (the source may be overwritten right
// after), recycled buffers are reused before anything is allocated, a
// replaced resident's buffer is recycled, the shared zero payload never
// reaches the free list, and the list stops at one path's worth,
// (L+1)·Z buffers.
func TestPutBucketOwnsPayloads(t *testing.T) {
	s := New(tr(), 4, 10) // L = 4, Z = 4: at most 20 free buffers
	staging := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	s.PutBucket(&block.Bucket{Blocks: []block.Block{{Addr: 1, Label: 3, Data: staging[0:4:4]}}})
	copy(staging, []byte{9, 9, 9, 9})
	if b, _ := s.Get(1); !bytes.Equal(b.Data, []byte{1, 2, 3, 4}) {
		t.Fatalf("stashed payload %v changed with its source", b.Data)
	}

	recycled := make([]byte, 4)
	s.Recycle([]block.Block{{Data: recycled}, {Data: block.ZeroPayload(4)}, {}})
	if s.FreeBuffers() != 1 {
		t.Fatalf("%d free buffers, want 1 (the zero payload and a nil one are not recycled)", s.FreeBuffers())
	}
	s.PutBucket(&block.Bucket{Blocks: []block.Block{{Addr: 2, Label: 3, Data: staging[4:8:8]}}})
	if b, _ := s.Get(2); &b.Data[0] != &recycled[0] || !bytes.Equal(b.Data, []byte{5, 6, 7, 8}) {
		t.Fatal("PutBucket did not copy into the recycled buffer")
	}

	old, _ := s.Get(1)
	s.PutBucket(&block.Bucket{Blocks: []block.Block{{Addr: 1, Label: 3, Data: staging[4:8:8]}}})
	if b, _ := s.Get(1); &b.Data[0] != &old.Data[0] {
		t.Fatal("a replaced resident's buffer was not reused for its replacement")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	many := make([]block.Block, 3*s.freeCap)
	for i := range many {
		many[i].Data = make([]byte, 4)
	}
	s.Recycle(many)
	if s.FreeBuffers() != 20 {
		t.Fatalf("%d free buffers, want the bound (L+1)·Z = 20", s.FreeBuffers())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestForEachOrdered(t *testing.T) {
	s := New(tr(), 4, 10)
	for _, a := range []uint64{8, 2, 5} {
		s.Put(block.Block{Addr: a, Label: 0})
	}
	var got []uint64
	s.ForEach(func(b block.Block) { got = append(got, b.Addr) })
	want := []uint64{2, 5, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v want %v", got, want)
		}
	}
}

func TestEvictionPreservesInvariantUnderRandomLoad(t *testing.T) {
	// Property: after evicting for every node of a random path leaf-to-
	// root, no remaining stash block could have been placed in any of
	// those buckets that still had room. (Greedy maximality.)
	g := tree.MustNew(6)
	r := rng.New(5)
	s := New(g, 4, 0)
	for a := uint64(0); a < 200; a++ {
		s.Put(block.Block{Addr: a, Label: tree.Label(r.Uint64n(g.Leaves()))})
	}
	const z = 4
	leaf := tree.Label(r.Uint64n(g.Leaves()))
	path := g.Path(leaf, nil)
	room := map[tree.Node]int{}
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		got := s.EvictFor(n, z)
		room[n] = z - len(got)
	}
	s.ForEach(func(b block.Block) {
		for n, free := range room {
			if free > 0 && g.OnPath(b.Label, n) {
				t.Fatalf("block %d (label %d) could still fit node %d with %d free slots",
					b.Addr, b.Label, n, free)
			}
		}
	})
}

// refStash is the map-backed stash the dense layout replaced: blocks in
// a Go map, eviction walking the whole map per bucket. It is kept as the
// reference the dense stash must match call for call.
type refStash struct {
	tr       tree.Tree
	capacity int
	blocks   map[uint64]block.Block

	maxOccupancy                         int
	overflowCount, samples, occupancySum uint64
}

func (r *refStash) put(b block.Block) {
	if b.IsDummy() {
		return
	}
	r.blocks[b.Addr] = b
	if n := len(r.blocks); n > r.maxOccupancy {
		r.maxOccupancy = n
	}
}

func (r *refStash) relabel(addr uint64, label tree.Label) bool {
	b, ok := r.blocks[addr]
	if !ok {
		return false
	}
	b.Label = label
	r.blocks[addr] = b
	return true
}

func (r *refStash) evict(n tree.Node, max int) []block.Block {
	if max <= 0 {
		return nil
	}
	level := r.tr.Level(n)
	var addrs []uint64
	for addr, b := range r.blocks {
		if r.tr.NodeAt(b.Label, level) == n {
			addrs = append(addrs, addr)
		}
	}
	slices.Sort(addrs)
	if len(addrs) > max {
		addrs = addrs[:max]
	}
	var out []block.Block
	for _, addr := range addrs {
		out = append(out, r.blocks[addr])
		delete(r.blocks, addr)
	}
	return out
}

func (r *refStash) endAccess() {
	r.samples++
	r.occupancySum += uint64(len(r.blocks))
	if r.capacity > 0 && len(r.blocks) > r.capacity {
		r.overflowCount++
	}
}

func (r *refStash) stats() Stats {
	st := Stats{MaxOccupancy: r.maxOccupancy, Accesses: r.samples}
	if r.samples > 0 {
		st.MeanOccupancy = float64(r.occupancySum) / float64(r.samples)
		st.OverflowRate = float64(r.overflowCount) / float64(r.samples)
	}
	return st
}

func (r *refStash) sorted() []block.Block {
	var out []block.Block
	for _, b := range r.blocks {
		out = append(out, b)
	}
	slices.SortFunc(out, func(a, b block.Block) int { return cmp.Compare(a.Addr, b.Addr) })
	return out
}

func sameBlocks(a, b []block.Block) bool {
	return slices.EqualFunc(a, b, func(x, y block.Block) bool {
		return x.Addr == y.Addr && x.Label == y.Label && bytes.Equal(x.Data, y.Data)
	})
}

// TestDenseMatchesMapReference drives the stash and the map-backed
// reference through one seeded random sequence of every mutating and
// reading call over a 12-level tree. Every result, the occupancy, the
// ForEach order and the statistics must match after each step: the
// dense layout changes where blocks sit in memory, never which block
// is evicted into which bucket.
func TestDenseMatchesMapReference(t *testing.T) {
	g := tree.MustNew(11)
	r := rng.New(22)
	s := New(g, 4, 10)
	ref := &refStash{tr: g, capacity: 10, blocks: map[uint64]block.Block{}}
	const addrSpace = 120
	randBlock := func(step int) block.Block {
		return block.Block{
			Addr:  r.Uint64n(addrSpace),
			Label: tree.Label(r.Uint64n(g.Leaves())),
			Data:  []byte{byte(step), byte(step >> 8)},
		}
	}
	var dst []block.Block
	for step := 0; step < 20000; step++ {
		switch op := r.Intn(7); op {
		case 0:
			b := randBlock(step)
			s.Put(b)
			ref.put(b)
		case 1:
			var bk block.Bucket
			for i := r.Intn(5); i > 0; i-- {
				b := randBlock(step)
				if r.Intn(4) == 0 {
					b = block.Dummy(2)
				}
				bk.Blocks = append(bk.Blocks, b)
			}
			s.PutBucket(&bk)
			for _, b := range bk.Blocks {
				ref.put(b)
			}
		case 2:
			addr := r.Uint64n(addrSpace)
			s.Remove(addr)
			delete(ref.blocks, addr)
		case 3:
			addr, label := r.Uint64n(addrSpace), tree.Label(r.Uint64n(g.Leaves()))
			if got, want := s.Relabel(addr, label), ref.relabel(addr, label); got != want {
				t.Fatalf("step %d: Relabel(%d) = %v, want %v", step, addr, got, want)
			}
		case 4:
			addr := r.Uint64n(addrSpace)
			got, ok := s.Get(addr)
			want, wantOK := ref.blocks[addr]
			if ok != wantOK || (ok && !sameBlocks([]block.Block{got}, []block.Block{want})) {
				t.Fatalf("step %d: Get(%d) = %+v %v, want %+v %v", step, addr, got, ok, want, wantOK)
			}
		case 5:
			// One refill: every level of a random path, leaf to root,
			// into a reused destination as the controllers call it.
			leaf := tree.Label(r.Uint64n(g.Leaves()))
			for lvl := int(g.LeafLevel()); lvl >= 0; lvl-- {
				n, max := g.NodeAt(leaf, uint(lvl)), r.Intn(6)-1
				dst = s.EvictAppend(dst[:0], n, max)
				if want := ref.evict(n, max); !sameBlocks(dst, want) {
					t.Fatalf("step %d: EvictAppend(node %d, max %d) = %v, want %v", step, n, max, dst, want)
				}
			}
		case 6:
			s.EndAccess()
			ref.endAccess()
		}
		if s.Len() != len(ref.blocks) {
			t.Fatalf("step %d: Len %d, want %d", step, s.Len(), len(ref.blocks))
		}
		if step%100 == 0 {
			var got []block.Block
			s.ForEach(func(b block.Block) { got = append(got, b) })
			if !sameBlocks(got, ref.sorted()) {
				t.Fatalf("step %d: ForEach visits %v, want %v", step, got, ref.sorted())
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if got, want := s.Stats(), ref.stats(); got != want {
		t.Fatalf("Stats %+v, want %+v", got, want)
	}
	if st := s.Stats(); st.OverflowRate == 0 {
		t.Fatalf("sequence never overflowed the capacity (%+v): it does not exercise the accounting", st)
	}
}

// BenchmarkEvictPath measures one 12-level refill's eviction over a
// stash of about 60 resident blocks: an EvictAppend per level, leaf to
// root, with Z = 4. The evicted blocks go back under fresh labels, as a
// path read would return them, so the occupancy holds steady.
func BenchmarkEvictPath(b *testing.B) {
	g := tree.MustNew(11)
	r := rng.New(1)
	s := New(g, 4, 200)
	for a := uint64(0); a < 60; a++ {
		s.Put(block.Block{Addr: a, Label: tree.Label(r.Uint64n(g.Leaves())), Data: make([]byte, 1024)})
	}
	var dst []block.Block
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leaf := tree.Label(r.Uint64n(g.Leaves()))
		dst = dst[:0]
		for lvl := int(g.LeafLevel()); lvl >= 0; lvl-- {
			dst = s.EvictAppend(dst, g.NodeAt(leaf, uint(lvl)), 4)
		}
		for _, blk := range dst {
			blk.Label = tree.Label(r.Uint64n(g.Leaves()))
			s.Put(blk)
		}
	}
}
