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

// TestBulkMatchesSingleton writes a set of buckets through WriteBuckets
// and checks both read paths (singleton and bulk) against a reference
// backend written one bucket at a time — in serial-cutoff mode and with
// the parallel branch forced.
func TestBulkMatchesSingleton(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			if parallel {
				forceBulkParallel(t)
			}
			bulk, ref := newMem(t), newMem(t)
			ns := []tree.Node{1, 3, 6, 12, 25}
			bks := make([]block.Bucket, len(ns))
			for i, n := range ns {
				bks[i] = testBucket(uint64(100+i), uint64(n)%bulk.tr.Leaves(), byte(i+1))
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
}

// TestBulkReuseAcrossCalls overwrites buckets through repeated bulk
// calls (exercising the scratch-slot reuse) and confirms the last write
// wins with intact payloads.
func TestBulkReuseAcrossCalls(t *testing.T) {
	forceBulkParallel(t)
	m := newMem(t)
	ns := []tree.Node{2, 5, 11}
	for round := byte(1); round <= 3; round++ {
		bks := make([]block.Bucket, len(ns))
		for i := range ns {
			bks[i] = testBucket(uint64(i), uint64(round)%m.tr.Leaves(), round)
		}
		if err := m.WriteBuckets(ns, bks); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]block.Bucket, len(ns))
	if err := m.ReadBuckets(ns, out); err != nil {
		t.Fatal(err)
	}
	for i := range ns {
		if len(out[i].Blocks) != 1 || out[i].Blocks[0].Data[0] != 3 {
			t.Fatalf("node %d: stale round survived: %+v", ns[i], out[i])
		}
	}
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

// TestBulkCorruptionSurfaces: a corrupted ciphertext read through the
// parallel branch reports the same typed corruption error as the
// singleton path.
func TestBulkCorruptionSurfaces(t *testing.T) {
	forceBulkParallel(t)
	m := newMem(t)
	ns := []tree.Node{4, 7, 13}
	bks := make([]block.Bucket, len(ns))
	for i := range ns {
		bks[i] = testBucket(uint64(i), 1, byte(i+1))
	}
	if err := m.WriteBuckets(ns, bks); err != nil {
		t.Fatal(err)
	}
	// Flip the high byte of the first block's label (16-byte nonce + 8
	// addr bytes + label MSB at offset 7): header corruption is what the
	// plausibility check is specified to catch.
	m.Ciphertext(7)[16+8+7] ^= 0xFF
	out := make([]block.Bucket, len(ns))
	err := m.ReadBuckets(ns, out)
	if err == nil {
		t.Fatal("corrupted bucket read succeeded")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption surfaced as %v, want ErrCorrupt", err)
	}
}

// TestBulkCutoffBoundary pins the serial-vs-parallel decision at the
// exact bulkMinBytes edge: one bucket below the cutoff stays serial, the
// exact cutoff fans out, SetBulkWorkers(1) pins serial at any volume,
// and a single bucket never fans out. Both sides of the edge then
// round-trip real payloads to show the branch choice is behaviorally
// invisible.
func TestBulkCutoffBoundary(t *testing.T) {
	// Geometry whose bucket size divides the cutoff exactly: Z=4 blocks
	// of 48-byte payload → 256-byte buckets, 16 of which are 4096 bytes.
	geo := block.Geometry{Z: 4, PayloadSize: 48}
	old := bulkMinBytes
	bulkMinBytes = 16 * geo.BucketSize()
	t.Cleanup(func() { bulkMinBytes = old })

	newM := func() *Mem {
		m, err := NewMem(tree.MustNew(4), geo, make([]byte, 16))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := newM()
	if m.bulkParallel(15) {
		t.Fatal("one bucket below the cutoff took the parallel branch")
	}
	if !m.bulkParallel(16) {
		t.Fatal("a call exactly at the cutoff stayed serial")
	}
	m.SetBulkWorkers(1)
	if m.bulkParallel(32) {
		t.Fatal("bulkWorkers=1 still fanned out")
	}
	m.SetBulkWorkers(0)
	bulkMinBytes = 0
	if m.bulkParallel(1) {
		t.Fatal("a single bucket fanned out")
	}
	bulkMinBytes = 16 * geo.BucketSize()

	// Behavioral check on both sides of the edge.
	for _, n := range []int{15, 16} {
		m := newM()
		ns := make([]tree.Node, n)
		bks := make([]block.Bucket, n)
		for i := range ns {
			ns[i] = tree.Node(i)
			data := bytes.Repeat([]byte{byte(i + 1)}, geo.PayloadSize)
			bks[i] = block.Bucket{Blocks: []block.Block{
				{Addr: uint64(200 + i), Label: uint64(i) % m.tr.Leaves(), Data: data},
			}}
		}
		if err := m.WriteBuckets(ns, bks); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		out := make([]block.Bucket, n)
		if err := m.ReadBuckets(ns, out); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range ns {
			if err := sameBucket(out[i], bks[i]); err != nil {
				t.Fatalf("n=%d node %d: %v", n, ns[i], err)
			}
		}
	}
}

// TestBulkWorkersOneMatchesPerBucketPath: with the volume cutoff forced
// off, SetBulkWorkers(1) must make bulk calls behave exactly like the
// per-bucket methods. Equivalence is checked on decoded plaintext —
// ciphertexts are nonce-randomized, so byte-comparing the medium would
// be meaningless.
func TestBulkWorkersOneMatchesPerBucketPath(t *testing.T) {
	forceBulkParallel(t) // only the workers==1 guard keeps these serial
	solo, ref := newMem(t), newMem(t)
	solo.SetBulkWorkers(1)
	ns := []tree.Node{1, 2, 8, 19, 30}
	for round := byte(1); round <= 2; round++ { // overwrite round reuses slots
		bks := make([]block.Bucket, len(ns))
		for i, n := range ns {
			bks[i] = testBucket(uint64(50+i), uint64(n)%solo.tr.Leaves(), round+byte(i))
			if err := ref.WriteBucket(n, &bks[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := solo.WriteBuckets(ns, bks); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]block.Bucket, len(ns))
	if err := solo.ReadBuckets(ns, out); err != nil {
		t.Fatal(err)
	}
	for i, n := range ns {
		want, err := ref.ReadBucket(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBucket(out[i], want); err != nil {
			t.Fatalf("bulk-serial read of node %d: %v", n, err)
		}
		got, err := solo.ReadBucket(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBucket(got, want); err != nil {
			t.Fatalf("singleton read off bulk-serial medium, node %d: %v", n, err)
		}
	}
	if c := solo.Counters(); c.BucketWrites != uint64(2*len(ns)) {
		t.Fatalf("bulk-serial writes counted %d, want %d", c.BucketWrites, 2*len(ns))
	}
}

// BenchmarkMemReadBuckets measures one bulk read of eight sealed
// 4,160-byte buckets (Z = 4, 1 KiB payloads, two real blocks each), the
// shape of a path-segment fetch: Open and decode fan out across the
// bulk workers, the caller among them.
func BenchmarkMemReadBuckets(b *testing.B) {
	tr := tree.MustNew(11)
	geo := block.Geometry{Z: 4, PayloadSize: 1024}
	m, err := NewMem(tr, geo, make([]byte, 16))
	if err != nil {
		b.Fatal(err)
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
		b.Fatal(err)
	}
	out := make([]block.Bucket, len(ns))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ReadBuckets(ns, out); err != nil {
			b.Fatal(err)
		}
	}
}
