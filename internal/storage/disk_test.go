package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"forkoram/internal/block"
	"forkoram/internal/crypt"
	"forkoram/internal/tree"
)

func newDisk(t *testing.T) *Disk {
	t.Helper()
	tr := tree.MustNew(4)
	d, err := OpenDisk(filepath.Join(t.TempDir(), "buckets.oram"), tr, testGeo(), make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// reopen closes d and opens the same file again with the same layout.
func reopen(t *testing.T, d *Disk) *Disk {
	t.Helper()
	tr, geo, path := d.Tree(), d.Geometry(), d.Path()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	nd, err := OpenDisk(path, tr, geo, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.Close() })
	return nd
}

func TestDiskRoundTripAcrossReopen(t *testing.T) {
	d := newDisk(t)
	ns := []tree.Node{0, 3, 7, 14, 30}
	for i, n := range ns {
		bk := testBucket(uint64(100+i), uint64(n)%d.Tree().Leaves(), byte(i+1))
		if err := d.WriteBucket(n, &bk); err != nil {
			t.Fatal(err)
		}
	}
	d = reopen(t, d)
	for i, n := range ns {
		bk, err := d.ReadBucket(n)
		if err != nil {
			t.Fatalf("bucket %d after reopen: %v", n, err)
		}
		want := testBucket(uint64(100+i), uint64(n)%d.Tree().Leaves(), byte(i+1))
		if err := sameBucket(bk, want); err != nil {
			t.Fatalf("bucket %d after reopen: %v", n, err)
		}
	}
	// Never-written slots still read as vacant.
	if bk, err := d.ReadBucket(5); err != nil || len(bk.Blocks) != 0 {
		t.Fatalf("vacant bucket after reopen: %v, %d blocks", err, len(bk.Blocks))
	}
}

// TestDiskTornFrameDetectedOnReopen kills a write partway through the
// frame (via the crash hook) and asserts that after reopening the store
// the slot surfaces a typed FrameError wrapping ErrCorrupt — never
// silently-decrypted garbage.
func TestDiskTornFrameDetectedOnReopen(t *testing.T) {
	for _, tear := range []int{1, frameHeaderSize - 2, frameHeaderSize + 7} {
		t.Run(fmt.Sprintf("tear=%d", tear), func(t *testing.T) {
			d := newDisk(t)
			bk := testBucket(1, 2, 0xAA)
			if err := d.WriteBucket(9, &bk); err != nil {
				t.Fatal(err)
			}
			killed := errors.New("injected kill")
			d.SetCrashWrite(func(frameLen int) (int, error) { return tear, killed })
			bk2 := testBucket(1, 2, 0xBB)
			if err := d.WriteBucket(9, &bk2); !errors.Is(err, killed) {
				t.Fatalf("killed write returned %v", err)
			}
			d.SetCrashWrite(nil)
			d = reopen(t, d)
			_, err := d.ReadBucket(9)
			if err == nil {
				t.Fatal("torn frame read back without error")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("torn frame error %v does not wrap ErrCorrupt", err)
			}
			var fe *FrameError
			if !errors.As(err, &fe) || fe.Node != 9 {
				t.Fatalf("torn frame error %v is not a FrameError for node 9", err)
			}
			if _, err := d.AuditFrame(9); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("AuditFrame on torn frame: %v", err)
			}
			// Untouched slots are unaffected by the neighbour's torn frame.
			if _, err := d.ReadBucket(8); err != nil {
				t.Fatalf("healthy neighbour: %v", err)
			}
		})
	}
}

// TestDiskTornWriteOldFrameSurvives covers tear=0: the kill lands before
// any byte of the new frame, so the old frame must read back intact.
func TestDiskTornWriteOldFrameSurvives(t *testing.T) {
	d := newDisk(t)
	bk := testBucket(1, 2, 0xAA)
	if err := d.WriteBucket(9, &bk); err != nil {
		t.Fatal(err)
	}
	killed := errors.New("injected kill")
	d.SetCrashWrite(func(frameLen int) (int, error) { return 0, killed })
	bk2 := testBucket(1, 2, 0xBB)
	if err := d.WriteBucket(9, &bk2); !errors.Is(err, killed) {
		t.Fatalf("killed write returned %v", err)
	}
	d.SetCrashWrite(nil)
	d = reopen(t, d)
	got, err := d.ReadBucket(9)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBucket(got, bk); err != nil {
		t.Fatalf("old frame after tear=0 kill: %v", err)
	}
}

// TestDiskOutOfBandCorruptionDetected flips bytes directly in the
// backing file (FrameSpan) — the adversary with disk access — and
// asserts every slot reads back as a typed corruption.
func TestDiskOutOfBandCorruptionDetected(t *testing.T) {
	d := newDisk(t)
	for n := tree.Node(0); n < d.Tree().Nodes(); n++ {
		bk := testBucket(uint64(n), uint64(n)%d.Tree().Leaves(), 0x11)
		if err := d.WriteBucket(n, &bk); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.OpenFile(d.Path(), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, n := range []tree.Node{0, 7, 22} {
		off, size := d.FrameSpan(n)
		buf := make([]byte, size)
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		buf[size/2] ^= 0xFF
		if _, err := f.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ReadBucket(n); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bucket %d flipped on disk, read returned %v", n, err)
		}
		if _, err := d.AuditFrame(n); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bucket %d flipped on disk, audit returned %v", n, err)
		}
	}
}

// TestDiskScrubAllFindsEveryCorruption corrupts a set of frames on disk
// and checks the offline scrub detects 100% of them with coordinates.
func TestDiskScrubAllFindsEveryCorruption(t *testing.T) {
	d := newDisk(t)
	for n := tree.Node(0); n < d.Tree().Nodes(); n++ {
		bk := testBucket(uint64(n), uint64(n)%d.Tree().Leaves(), 0x11)
		if err := d.WriteBucket(n, &bk); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.OpenFile(d.Path(), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	corrupt := []tree.Node{2, 9, 17, 28}
	for _, n := range corrupt {
		off, _ := d.FrameSpan(n)
		// Flip one ciphertext byte; header CRC no longer matches.
		if _, err := f.WriteAt([]byte{0x5A}, off+frameHeaderSize+3); err != nil {
			t.Fatal(err)
		}
	}
	st, bad := d.ScrubAll(true)
	if st.Frames != d.Tree().Nodes() {
		t.Fatalf("scrub audited %d frames, want %d", st.Frames, d.Tree().Nodes())
	}
	if st.Corrupt() != uint64(len(corrupt)) {
		t.Fatalf("scrub found %d corruptions, want %d (stats %+v)", st.Corrupt(), len(corrupt), st)
	}
	found := map[tree.Node]bool{}
	for _, n := range bad {
		found[n] = true
	}
	for _, n := range corrupt {
		if !found[n] {
			t.Errorf("scrub missed corrupted bucket %d", n)
		}
	}
}

// TestDiskBulkMinBytesBoundary pins the serial-vs-parallel cutoff at the
// exact bulkMinBytes boundary, and checks both sides produce identical
// results.
func TestDiskBulkMinBytesBoundary(t *testing.T) {
	d := newDisk(t)
	d.SetBulkWorkers(4)
	bucketBytes := d.Geometry().BucketSize()
	atCut := (bulkMinBytes + bucketBytes - 1) / bucketBytes // smallest n with n*size >= cutoff
	if atCut < 2 {
		atCut = 2
	}
	if !d.bulkParallel(atCut) {
		t.Fatalf("n=%d (%d bytes) should fan out (cutoff %d)", atCut, atCut*bucketBytes, bulkMinBytes)
	}
	if below := atCut - 1; below*bucketBytes >= bulkMinBytes {
		t.Fatalf("n=%d is not below the cutoff", below)
	} else if d.bulkParallel(below) && below >= 2 {
		t.Fatalf("n=%d (%d bytes) should stay serial (cutoff %d)", below, below*bucketBytes, bulkMinBytes)
	}
	if int(d.Tree().Nodes()) < atCut {
		t.Skipf("test tree too small for cutoff (%d < %d)", d.Tree().Nodes(), atCut)
	}
	for _, n := range []int{atCut - 1, atCut} {
		ns := make([]tree.Node, n)
		bks := make([]block.Bucket, n)
		for i := range ns {
			ns[i] = tree.Node(i)
			bks[i] = testBucket(uint64(i), uint64(i)%d.Tree().Leaves(), byte(i+1))
		}
		if err := d.WriteBuckets(ns, bks); err != nil {
			t.Fatal(err)
		}
		out := make([]block.Bucket, n)
		if err := d.ReadBuckets(ns, out); err != nil {
			t.Fatal(err)
		}
		for i := range ns {
			if err := sameBucket(out[i], bks[i]); err != nil {
				t.Fatalf("n=%d bucket %d: %v", n, ns[i], err)
			}
		}
	}
}

// TestDiskConcurrentDisjointBulk runs one bulk reader and one bulk
// writer over disjoint node sets concurrently — the concurrent bulk
// contract — under the race detector.
func TestDiskConcurrentDisjointBulk(t *testing.T) {
	forceBulkParallel(t)
	d := newDisk(t)
	d.SetBulkWorkers(4)
	readSet := []tree.Node{0, 1, 3, 7, 15}
	writeSet := []tree.Node{2, 6, 14, 30, 22}
	seed := make([]block.Bucket, len(readSet))
	for i, n := range readSet {
		seed[i] = testBucket(uint64(n), uint64(n)%d.Tree().Leaves(), 0x33)
		if err := d.WriteBucket(n, &seed[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for iter := 0; iter < 50; iter++ {
			out := make([]block.Bucket, len(readSet))
			if err := d.ReadBuckets(readSet, out); err != nil {
				errs[0] = err
				return
			}
			for i := range readSet {
				if err := sameBucket(out[i], seed[i]); err != nil {
					errs[0] = fmt.Errorf("iter %d bucket %d: %w", iter, readSet[i], err)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		bks := make([]block.Bucket, len(writeSet))
		for iter := 0; iter < 50; iter++ {
			for i, n := range writeSet {
				bks[i] = testBucket(uint64(n), uint64(n)%d.Tree().Leaves(), byte(iter+1))
			}
			if err := d.WriteBuckets(writeSet, bks); err != nil {
				errs[1] = err
				return
			}
		}
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
}

// TestDiskEpochMonotonicAcrossReopen checks the epoch counter survives a
// reopen (recovered by header scan) and flags frames from the future.
func TestDiskEpochMonotonicAcrossReopen(t *testing.T) {
	d := newDisk(t)
	for i := 0; i < 5; i++ {
		bk := testBucket(uint64(i), 1, byte(i+1))
		if err := d.WriteBucket(tree.Node(i), &bk); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Epoch()
	if before == 0 {
		t.Fatal("epoch counter did not advance")
	}
	d = reopen(t, d)
	if got := d.Epoch(); got != before {
		t.Fatalf("epoch %d after reopen, want %d", got, before)
	}
	// Forge a frame stamped far in the future: CRC-valid, epoch-invalid.
	ct := d.Ciphertext(0)
	fr := make([]byte, d.slotSize)
	d.frame(fr, before+1000, ct)
	f, err := os.OpenFile(d.Path(), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	off, _ := d.FrameSpan(0)
	if _, err := f.WriteAt(fr, off); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AuditFrame(0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("future-epoch frame audited as %v", err)
	}
}

func TestDiskResetClearsFrames(t *testing.T) {
	d := newDisk(t)
	bk := testBucket(1, 2, 0x77)
	if err := d.WriteBucket(4, &bk); err != nil {
		t.Fatal(err)
	}
	ep := d.Epoch()
	if err := d.Reset(); err != nil {
		t.Fatal(err)
	}
	if got, err := d.ReadBucket(4); err != nil || len(got.Blocks) != 0 {
		t.Fatalf("bucket after reset: %v, %d blocks", err, len(got.Blocks))
	}
	if d.Epoch() != ep {
		t.Fatalf("reset moved the epoch counter %d -> %d", ep, d.Epoch())
	}
}

func TestDiskCiphertextRoundTrip(t *testing.T) {
	d := newDisk(t)
	bk := testBucket(5, 3, 0x42)
	if err := d.WriteBucket(11, &bk); err != nil {
		t.Fatal(err)
	}
	ct := d.Ciphertext(11)
	if len(ct) != crypt.SealedSize(d.Geometry().BucketSize()) {
		t.Fatalf("ciphertext %d bytes, want sealed size %d", len(ct), crypt.SealedSize(d.Geometry().BucketSize()))
	}
	// Move the sealed image to another slot on the same path (replay by
	// relocation); it must decode there since labels live inside.
	d.SetCiphertext(12, ct)
	got, err := d.ReadBucket(12)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBucket(got, bk); err != nil {
		t.Fatal(err)
	}
	// nil clears back to never-written.
	d.SetCiphertext(12, nil)
	if got := d.Ciphertext(12); got != nil {
		t.Fatalf("cleared slot still has %d ciphertext bytes", len(got))
	}
}

func TestDiskLayoutMismatchRejected(t *testing.T) {
	d := newDisk(t)
	path := d.Path()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(path, tree.MustNew(3), testGeo(), make([]byte, 16)); err == nil {
		t.Fatal("tree mismatch accepted")
	}
	geo := testGeo()
	geo.Z = 2
	if _, err := OpenDisk(path, tree.MustNew(4), geo, make([]byte, 16)); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	// Oversize file: trailing garbage is a corruption verdict.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("trailing garbage"))
	f.Close()
	if _, err := OpenDisk(path, tree.MustNew(4), testGeo(), make([]byte, 16)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversize file opened with %v", err)
	}
}

func TestOpenDiskImageReconstructsLayout(t *testing.T) {
	d := newDisk(t)
	bk := testBucket(1, 2, 0x99)
	if err := d.WriteBucket(6, &bk); err != nil {
		t.Fatal(err)
	}
	tr, geo, path := d.Tree(), d.Geometry(), d.Path()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := OpenDiskImage(path, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	defer img.Close()
	if img.Tree() != tr || img.Geometry() != geo {
		t.Fatalf("image layout L=%d %+v, want L=%d %+v",
			img.Tree().LeafLevel(), img.Geometry(), tr.LeafLevel(), geo)
	}
	got, err := img.ReadBucket(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBucket(got, bk); err != nil {
		t.Fatal(err)
	}
	// Keyless open: frame audits work, decodes fail cleanly as corrupt.
	img2, err := OpenDiskImage(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer img2.Close()
	if _, err := img2.AuditFrame(6); err != nil {
		t.Fatalf("keyless frame audit: %v", err)
	}
}
