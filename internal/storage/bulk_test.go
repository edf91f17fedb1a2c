package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"forkoram/internal/block"
	"forkoram/internal/tree"
)

// forceBulkParallel drops the serial-below cutoff so even the tiny test
// geometry exercises the fan-out branch, restoring it afterwards.
func forceBulkParallel(t *testing.T) {
	t.Helper()
	old := bulkMinBytes
	bulkMinBytes = 0
	t.Cleanup(func() { bulkMinBytes = old })
}

func testBucket(addr, label uint64, fill byte) block.Bucket {
	data := bytes.Repeat([]byte{fill}, 32)
	return block.Bucket{Blocks: []block.Block{{Addr: addr, Label: label, Data: data}}}
}

func sameBucket(a, b block.Bucket) error {
	if len(a.Blocks) != len(b.Blocks) {
		return fmt.Errorf("block count %d != %d", len(a.Blocks), len(b.Blocks))
	}
	for i := range a.Blocks {
		x, y := a.Blocks[i], b.Blocks[i]
		if x.Addr != y.Addr || x.Label != y.Label || !bytes.Equal(x.Data, y.Data) {
			return fmt.Errorf("block %d: %+v != %+v", i, x, y)
		}
	}
	return nil
}

// forEachBulkMedium runs f as two subtests: parallel=false over Mem,
// whose bulk calls run serially on the caller, and parallel=true over
// Disk with its fan-out forced on (every bucket set of the tiny test
// geometry is below bulkMinBytes).
func forEachBulkMedium(t *testing.T, f func(t *testing.T, m Medium)) {
	t.Run("parallel=false", func(t *testing.T) { f(t, newMem(t)) })
	t.Run("parallel=true", func(t *testing.T) {
		forceBulkParallel(t)
		f(t, newDisk(t))
	})
}

// TestBulkMatchesSingleton writes a set of buckets through WriteBuckets
// and checks both read paths (singleton and bulk) against a reference
// backend written one bucket at a time, on Mem and on Disk's fan-out.
func TestBulkMatchesSingleton(t *testing.T) {
	forEachBulkMedium(t, func(t *testing.T, bulk Medium) {
		ref := newMem(t)
		ns := []tree.Node{1, 3, 6, 12, 25}
		bks := make([]block.Bucket, len(ns))
		for i, n := range ns {
			bks[i] = testBucket(uint64(100+i), uint64(n)%bulk.Tree().Leaves(), byte(i+1))
			if err := ref.WriteBucket(n, &bks[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := bulk.WriteBuckets(ns, bks); err != nil {
			t.Fatal(err)
		}
		// Singleton reads off the bulk-written medium.
		for i, n := range ns {
			got, err := bulk.ReadBucket(n)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.ReadBucket(n)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameBucket(got, want); err != nil {
				t.Fatalf("bucket %d (node %d): %v", i, n, err)
			}
		}
		// Bulk reads, including a never-written node in the middle.
		withEmpty := append([]tree.Node{9}, ns...)
		out := make([]block.Bucket, len(withEmpty))
		if err := bulk.ReadBuckets(withEmpty, out); err != nil {
			t.Fatal(err)
		}
		if len(out[0].Blocks) != 0 {
			t.Fatalf("never-written bucket came back non-empty: %+v", out[0])
		}
		for i := range ns {
			if err := sameBucket(out[i+1], bks[i]); err != nil {
				t.Fatalf("bulk read of node %d: %v", ns[i], err)
			}
		}
	})
}

// TestBulkReuseAcrossCalls overwrites buckets through repeated bulk
// calls (exercising the staging-slot reuse) and confirms the last write
// wins with intact payloads. A bulk read's results then survive writes
// and per-bucket reads of other buckets: reads stage apart from writes.
func TestBulkReuseAcrossCalls(t *testing.T) {
	forEachBulkMedium(t, func(t *testing.T, m Medium) {
		ns := []tree.Node{2, 5, 11}
		for round := byte(1); round <= 3; round++ {
			bks := make([]block.Bucket, len(ns))
			for i := range ns {
				bks[i] = testBucket(uint64(i), uint64(round)%m.Tree().Leaves(), round)
			}
			if err := m.WriteBuckets(ns, bks); err != nil {
				t.Fatal(err)
			}
		}
		out := make([]block.Bucket, len(ns))
		if err := m.ReadBuckets(ns, out); err != nil {
			t.Fatal(err)
		}
		other := []tree.Node{0, 1}
		others := []block.Bucket{testBucket(7, 0, 0xAA), testBucket(8, 0, 0xBB)}
		if err := m.WriteBuckets(other, others); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteBucket(3, &others[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := m.ReadBucket(0); err != nil {
			t.Fatal(err)
		}
		for i := range ns {
			if len(out[i].Blocks) != 1 || !bytes.Equal(out[i].Blocks[0].Data, bytes.Repeat([]byte{3}, 32)) {
				t.Fatalf("node %d: stale round or overwritten staging: %+v", ns[i], out[i])
			}
		}
	})
}

// TestBulkCounters pins that bulk calls count one access per bucket,
// exactly like the per-bucket methods.
func TestBulkCounters(t *testing.T) {
	m := newMem(t)
	ns := []tree.Node{0, 1, 2}
	bks := make([]block.Bucket, len(ns))
	if err := m.WriteBuckets(ns, bks); err != nil {
		t.Fatal(err)
	}
	out := make([]block.Bucket, len(ns))
	if err := m.ReadBuckets(ns, out); err != nil {
		t.Fatal(err)
	}
	c := m.Counters()
	if c.BucketWrites != 3 || c.BucketReads != 3 {
		t.Fatalf("counters %+v, want 3 reads / 3 writes", c)
	}
}

// TestBulkValidation: length mismatches and out-of-range nodes are
// rejected before any state changes.
func TestBulkValidation(t *testing.T) {
	m := newMem(t)
	if err := m.ReadBuckets([]tree.Node{0, 1}, make([]block.Bucket, 1)); err == nil {
		t.Fatal("length mismatch accepted on read")
	}
	if err := m.WriteBuckets([]tree.Node{0}, nil); err == nil {
		t.Fatal("length mismatch accepted on write")
	}
	bad := []tree.Node{0, tree.Node(1 << 40)}
	if err := m.ReadBuckets(bad, make([]block.Bucket, 2)); err == nil {
		t.Fatal("out-of-range node accepted on read")
	}
	if err := m.WriteBuckets(bad, make([]block.Bucket, 2)); err == nil {
		t.Fatal("out-of-range node accepted on write")
	}
	if c := m.Counters(); c.BucketReads != 0 || c.BucketWrites != 0 {
		t.Fatalf("rejected bulk calls were counted: %+v", c)
	}
}

// TestBulkCorruptionSurfaces: a corrupted ciphertext read through a
// bulk call reports the same typed corruption error as the singleton
// path.
func TestBulkCorruptionSurfaces(t *testing.T) {
	forEachBulkMedium(t, func(t *testing.T, m Medium) {
		ns := []tree.Node{4, 7, 13}
		bks := make([]block.Bucket, len(ns))
		for i := range ns {
			bks[i] = testBucket(uint64(i), 1, byte(i+1))
		}
		if err := m.WriteBuckets(ns, bks); err != nil {
			t.Fatal(err)
		}
		// Flip the high byte of the first block's label (16-byte nonce + 8
		// addr bytes + label MSB at offset 7): header corruption is what
		// the plausibility check is specified to catch.
		ct := append([]byte(nil), m.Ciphertext(7)...)
		ct[16+8+7] ^= 0xFF
		m.SetCiphertext(7, ct)
		out := make([]block.Bucket, len(ns))
		err := m.ReadBuckets(ns, out)
		if err == nil {
			t.Fatal("corrupted bucket read succeeded")
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("corruption surfaced as %v, want ErrCorrupt", err)
		}
	})
}

// memReadFixture seals eight 4,160-byte buckets (Z = 4, 1 KiB payloads,
// two real blocks each) along one path of an L = 11 tree, the shape of a
// path-segment fetch, and returns the medium and the nodes.
func memReadFixture(tb testing.TB) (*Mem, []tree.Node) {
	tr := tree.MustNew(11)
	geo := block.Geometry{Z: 4, PayloadSize: 1024}
	m, err := NewMem(tr, geo, make([]byte, 16))
	if err != nil {
		tb.Fatal(err)
	}
	ns := tr.Path(0, nil)[:8]
	bks := make([]block.Bucket, len(ns))
	for i := range bks {
		for j := 0; j < 2; j++ {
			data := bytes.Repeat([]byte{byte(i + j)}, geo.PayloadSize)
			bks[i].Blocks = append(bks[i].Blocks, block.Block{Addr: uint64(2*i + j), Data: data})
		}
	}
	if err := m.WriteBuckets(ns, bks); err != nil {
		tb.Fatal(err)
	}
	return m, ns
}

// TestMemReadBucketsAllocs guards the allocation-free decode: once its
// staging is warm, an 8-bucket bulk read allocates at most one object
// per bucket, the stream cipher.NewCTR builds for each Open. A payload
// or block-slice allocation per bucket would break the bound.
func TestMemReadBucketsAllocs(t *testing.T) {
	m, ns := memReadFixture(t)
	out := make([]block.Bucket, len(ns))
	if err := m.ReadBuckets(ns, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.ReadBuckets(ns, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(len(ns)) {
		t.Fatalf("warm %d-bucket ReadBuckets allocated %.0f objects, want at most %d", len(ns), allocs, len(ns))
	}
}

// BenchmarkMemReadBuckets measures one bulk read of eight sealed
// 4,160-byte buckets (Z = 4, 1 KiB payloads, two real blocks each), the
// shape of a path-segment fetch: the caller opens and decodes each
// bucket in turn into its own staging slot.
func BenchmarkMemReadBuckets(b *testing.B) {
	m, ns := memReadFixture(b)
	out := make([]block.Bucket, len(ns))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ReadBuckets(ns, out); err != nil {
			b.Fatal(err)
		}
	}
}
