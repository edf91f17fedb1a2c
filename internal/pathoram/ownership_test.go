package pathoram

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"forkoram/internal/block"
	"forkoram/internal/rng"
	"forkoram/internal/storage"
	"forkoram/internal/tree"
)

// stashPayloads copies every stash payload out, keyed by address.
func stashPayloads(c *Controller) map[uint64][]byte {
	m := map[uint64][]byte{}
	c.Stash().ForEach(func(b block.Block) { m[b.Addr] = append([]byte(nil), b.Data...) })
	return m
}

// TestReadRangeCopiesOutOfStaging reads one path, then a second path
// segment over other nodes, which decodes into the same backend staging
// slots. Every payload the first read stashed must be unchanged: the
// stash copies payloads out of the staging the backend reuses. It runs
// over Mem and Disk, both through their bulk reads.
func TestReadRangeCopiesOutOfStaging(t *testing.T) {
	tr := tree.MustNew(4)
	geo := block.Geometry{Z: 4, PayloadSize: 16}
	media := map[string]func(t *testing.T) storage.Medium{
		"mem": func(t *testing.T) storage.Medium {
			m, err := storage.NewMem(tr, geo, make([]byte, 16))
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		"disk": func(t *testing.T) storage.Medium {
			d, err := storage.OpenDisk(filepath.Join(t.TempDir(), "tree.oram"), tr, geo, make([]byte, 16))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		},
	}
	for name, open := range media {
		t.Run(name, func(t *testing.T) {
			o, err := New(Config{Tree: tr, StashCapacity: 200, TrackData: true}, open(t), rng.New(3))
			if err != nil {
				t.Fatal(err)
			}
			// Fill the tree with distinct nonzero payloads.
			for a := uint64(0); a < 40; a++ {
				if _, _, err := o.Access(OpWrite, a, payload(geo.PayloadSize, byte(a+1))); err != nil {
					t.Fatal(err)
				}
			}
			c := o.Controller()
			before := c.Stash().Len()
			if _, err := c.ReadRange(0, 0, nil); err != nil {
				t.Fatal(err)
			}
			first := stashPayloads(c)
			if len(first) == before {
				t.Fatal("the first read stashed no block")
			}
			// The rightmost leaf's path shares only the root with the
			// leftmost one, so this reads levels 1..L of other nodes.
			if _, err := c.ReadRange(tree.Label(tr.Leaves()-1), 1, nil); err != nil {
				t.Fatal(err)
			}
			if c.Stash().Len() == len(first) {
				t.Fatal("the second read stashed no block")
			}
			for addr, want := range first {
				b, ok := c.Stash().Get(addr)
				if !ok || !bytes.Equal(b.Data, want) {
					t.Fatalf("stashed payload of block %d changed when the backend reused its staging", addr)
				}
			}
			c.Stash().ForEach(func(b block.Block) {
				if !bytes.Equal(b.Data, payload(geo.PayloadSize, byte(b.Addr+1))) {
					t.Fatalf("block %d holds the wrong payload", b.Addr)
				}
			})
			if err := c.Stash().Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFreeListStaysBounded runs 10,000 mixed accesses, first touches
// included, through the bulk refill and the per-bucket one. After every
// access the stash's free list holds at most one path's worth of
// buffers, (L+1)·Z, and payload ownership validates.
func TestFreeListStaysBounded(t *testing.T) {
	const leafLevel, z = 5, 4
	bound := (leafLevel + 1) * z
	for _, hide := range []bool{false, true} {
		t.Run(fmt.Sprintf("bulk=%v", !hide), func(t *testing.T) {
			tr := tree.MustNew(leafLevel)
			geo := block.Geometry{Z: z, PayloadSize: 16}
			mem, err := storage.NewMem(tr, geo, make([]byte, 16))
			if err != nil {
				t.Fatal(err)
			}
			var be storage.Backend = mem
			if hide {
				be = noBulk{mem}
			}
			o, err := New(Config{Tree: tr, StashCapacity: 200, TrackData: true}, be, rng.New(8))
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(9)
			peak := 0
			for i := 0; i < 10000; i++ {
				addr := r.Uint64n(120)
				if r.Intn(2) == 0 {
					_, _, err = o.Access(OpWrite, addr, payload(geo.PayloadSize, byte(i)))
				} else {
					_, _, err = o.Access(OpRead, addr, nil)
				}
				if err != nil {
					t.Fatal(err)
				}
				st := o.Controller().Stash()
				if f := st.FreeBuffers(); f > bound {
					t.Fatalf("access %d: %d free buffers, bound (L+1)·Z = %d", i, f, bound)
				} else if f > peak {
					peak = f
				}
				if err := st.Validate(); err != nil {
					t.Fatalf("access %d: %v", i, err)
				}
			}
			if peak == 0 {
				t.Fatal("no payload was ever recycled")
			}
		})
	}
}

// failingBulk fails every bulk write while fail is set.
type failingBulk struct {
	*storage.Mem
	fail bool
}

func (f *failingBulk) WriteBuckets(ns []tree.Node, bks []block.Bucket) error {
	if f.fail {
		return fmt.Errorf("failingBulk: write of %d buckets: %w", len(ns), storage.ErrCorrupt)
	}
	return f.Mem.WriteBuckets(ns, bks)
}

// TestRecycleOnlyAfterWriteLands pins when evicted payloads return to
// the stash: after their bucket write succeeds, exactly once, even if
// retries came first, and never after a failed write.
func TestRecycleOnlyAfterWriteLands(t *testing.T) {
	const label = tree.Label(5)
	stashThree := func(t *testing.T, c *Controller) {
		t.Helper()
		for a := uint64(1); a <= 3; a++ {
			if _, err := c.FetchBlock(OpWrite, a, label, payload(16, byte(a))); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("retried", func(t *testing.T) {
		o, fb := retryFixture(t, 0)
		c := o.Controller()
		stashThree(t, c)
		fb.failNext = 2 // transient: the third attempt lands
		if _, err := c.WriteLevel(label, c.Tree().LeafLevel()); err != nil {
			t.Fatal(err)
		}
		if got := c.Stash().FreeBuffers(); got != 3 {
			t.Fatalf("%d free buffers after a retried write of 3 blocks, want 3", got)
		}
		if err := c.Stash().Validate(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("failed", func(t *testing.T) {
		o, fb := retryFixture(t, 0)
		c := o.Controller()
		stashThree(t, c)
		fb.failNext, fb.permanent = 1, true
		if _, err := c.WriteLevel(label, c.Tree().LeafLevel()); err == nil {
			t.Fatal("failed write reported success")
		}
		if got := c.Stash().FreeBuffers(); got != 0 {
			t.Fatalf("a failed write recycled %d payloads", got)
		}
	})
	t.Run("failed-bulk", func(t *testing.T) {
		tr := tree.MustNew(3)
		mem, err := storage.NewMem(tr, block.Geometry{Z: 4, PayloadSize: 16}, make([]byte, 16))
		if err != nil {
			t.Fatal(err)
		}
		fb := &failingBulk{Mem: mem, fail: true}
		c, err := NewController(Config{Tree: tr, StashCapacity: 50, TrackData: true}, fb)
		if err != nil {
			t.Fatal(err)
		}
		stashThree(t, c)
		if _, err := c.WriteRange(label, 0, nil); err == nil {
			t.Fatal("failed bulk write reported success")
		}
		if got := c.Stash().FreeBuffers(); got != 0 {
			t.Fatalf("a failed bulk write recycled %d payloads", got)
		}
	})
}
