package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"forkoram/internal/block"
	"forkoram/internal/crypt"
	"forkoram/internal/par"
	"forkoram/internal/tree"
)

// Disk is a durable ciphertext-at-rest backend: the whole ORAM tree
// lives in one preallocated file, one fixed-size slot per bucket. Node
// ids are heap-indexed (level-ordered), so slots are laid out per level:
// level l occupies the contiguous byte range of nodes [2^l-1, 2^(l+1)-2]
// and a path read turns into one seek per level, never more.
//
// Every slot holds a frame: a 16-byte header (epoch, length, CRC-32C
// over header fields and ciphertext) followed by the sealed bucket
// image. The frame makes torn writes detectable: a process killed
// mid-pwrite leaves a slot mixing old and new bytes whose CRC cannot
// match, so reopening the file after a crash surfaces the slot as a
// typed FrameError (wrapping ErrCorrupt) instead of silently decrypting
// garbage. An all-zero frame is the one deliberate exception — it means
// never written (the file is extended sparsely at creation), and a
// torn write can only produce it by writing zero bytes, i.e. by not
// happening. Recovery then overwrites every slot from the checkpointed
// medium image, which also clears any torn frames.
//
// Epochs are store-global and monotonic: every write stamps the next
// epoch, and Open recovers the counter by scanning the frame headers.
// The scrub walker uses them to flag frames from the future (a stale
// counter or replayed image).
//
// Durability model: like Mem, Disk is the *medium*, not the journal —
// acknowledged writes are made durable by the WAL + checkpoint story
// above it, so bucket writes are not fsynced by default (SyncWrites
// opts in). What the frame layer guarantees is detection: after a kill
// at any byte boundary, no frame ever reads back as silently wrong.
//
// Concurrent bulk contract (BulkBackend): a ReadBuckets and a
// WriteBuckets call may run concurrently over disjoint node sets; pread
// and pwrite on disjoint slots do not race. Same-kind calls are
// serialized internally (rdMu/wrMu own the per-kind staging); mu guards
// the counters, the epoch counter, and the per-bucket staging buffers.
// Above bulkMinBytes a bulk call fans its per-slot IO and crypto out
// over the bulk workers, so the slots' pread or pwrite syscalls overlap.
type Disk struct {
	tr   tree.Tree
	geo  block.Geometry
	eng  *crypt.Engine
	f    *os.File
	path string

	// SyncWrites fsyncs the file after every write call (single or
	// bulk). Off by default: the WAL above the device provides
	// durability for acknowledged operations.
	SyncWrites bool

	// crashWrite, when set (via SetCrashWrite), is consulted exactly
	// once per write call before any frame bytes reach the file. A
	// non-nil error simulates a kill mid-write: the first `tear` bytes
	// of the first frame are written (modelling the cut pwrite) and the
	// error is returned. Consulted once per call — not once per frame —
	// so parallel bulk fan-out stays schedule-deterministic.
	crashWrite func(frameLen int) (tear int, err error)

	slotSize int // frameHeaderSize + sealed bucket image

	mu     sync.Mutex // guards cnt, epoch, staging, closed
	cnt    Counters
	epoch  uint64
	closed bool

	ptBuf []byte    // per-bucket write plaintext staging
	frBuf []byte    // per-bucket frame staging
	one   readStage // ReadBucket's staging

	bulkWorkers int
	rdMu, wrMu  sync.Mutex  // serialize same-kind bulk calls (own the per-kind staging)
	rd          []readStage // bulk-read staging, one slot per bucket
	wrPt        [][]byte    // per-slot plaintext staging for bulk writes
	rdFr, wrFr  [][]byte    // per-slot frame staging for bulk calls
	wrEp        []uint64    // per-slot epochs claimed under mu by a bulk write
}

const (
	diskMagic       = "FKDS"
	diskVersion     = 1
	diskHeaderSize  = 64
	frameHeaderSize = 16 // epoch u64 | length u32 | crc u32
)

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// OpenDisk opens (or creates) a disk bucket store at path for the given
// tree and geometry, encrypting with key (16 bytes). Opening an existing
// file validates the stored layout against the requested one and rescans
// the epoch counter; a file cut short by a kill during creation is
// re-extended (sparse zeros read as never-written buckets).
func OpenDisk(path string, tr tree.Tree, geo block.Geometry, key []byte) (*Disk, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	eng, err := crypt.NewEngine(key, 0)
	if err != nil {
		return nil, err
	}
	if tr.LeafLevel() > 0xFFFF {
		return nil, fmt.Errorf("storage: leaf level %d too large for disk layout", tr.LeafLevel())
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open disk store: %w", err)
	}
	d := &Disk{
		tr: tr, geo: geo, eng: eng, f: f, path: path,
		slotSize: frameHeaderSize + crypt.SealedSize(geo.BucketSize()),
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat disk store: %w", err)
	}
	if st.Size() == 0 {
		if err := d.initFile(); err != nil {
			f.Close()
			return nil, err
		}
		return d, nil
	}
	if err := d.checkHeader(); err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < d.fileSize() {
		// Killed between header write and preallocation: extend. The
		// missing tail reads as zeros = never-written buckets.
		if err := f.Truncate(d.fileSize()); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: extend disk store: %w", err)
		}
	} else if st.Size() > d.fileSize() {
		f.Close()
		return nil, corruptf("storage: disk store %s is %d bytes, layout wants %d", path, st.Size(), d.fileSize())
	}
	if err := d.scanEpoch(); err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// OpenDiskImage opens an existing disk store reconstructing tree and
// geometry from the file header — the offline entry point for scrub
// tooling that only has the image and (optionally) the key. With a nil
// key, frame-level audits work but decode-level checks are unavailable.
func OpenDiskImage(path string, key []byte) (*Disk, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open disk image: %w", err)
	}
	hdr := make([]byte, diskHeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		f.Close()
		return nil, corruptf("storage: disk image %s has no readable header (%v)", path, err)
	}
	f.Close()
	leafLevel, geo, err := parseHeader(hdr)
	if err != nil {
		return nil, fmt.Errorf("storage: disk image %s: %w", path, err)
	}
	tr, err := tree.New(leafLevel)
	if err != nil {
		return nil, err
	}
	if key == nil {
		key = make([]byte, 16) // frame audits only; decodes will fail cleanly
	}
	return OpenDisk(path, tr, geo, key)
}

// fileSize returns the full preallocated size for this layout.
func (d *Disk) fileSize() int64 {
	return diskHeaderSize + int64(d.tr.Nodes())*int64(d.slotSize)
}

// slotOffset returns the byte offset of node n's frame.
func (d *Disk) slotOffset(n tree.Node) int64 {
	return diskHeaderSize + int64(n)*int64(d.slotSize)
}

// FrameSpan returns the byte range [off, off+size) of node n's frame in
// the backing file — test and tooling hook for out-of-band corruption
// injection and offline inspection.
func (d *Disk) FrameSpan(n tree.Node) (off int64, size int) {
	return d.slotOffset(n), d.slotSize
}

// initFile writes the layout header and preallocates the slot region
// (sparsely: unwritten slots read as zeros = never-written buckets).
func (d *Disk) initFile() error {
	hdr := make([]byte, diskHeaderSize)
	copy(hdr[0:4], diskMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], diskVersion)
	binary.LittleEndian.PutUint16(hdr[6:8], uint16(d.tr.LeafLevel()))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(d.geo.Z))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(d.geo.PayloadSize))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.Checksum(hdr[0:16], castagnoli))
	if _, err := d.f.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("storage: write disk header: %w", err)
	}
	// Header durable before the file is considered created: a kill
	// between these steps leaves either no usable header (size 0 or a
	// torn header, both rejected as corrupt) or a valid header with a
	// short file, which reopen extends.
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("storage: sync disk header: %w", err)
	}
	if err := d.f.Truncate(d.fileSize()); err != nil {
		return fmt.Errorf("storage: preallocate disk store: %w", err)
	}
	return nil
}

// parseHeader validates a raw header and returns the layout it encodes.
func parseHeader(hdr []byte) (leafLevel uint, geo block.Geometry, err error) {
	if string(hdr[0:4]) != diskMagic {
		return 0, geo, corruptf("bad magic %q", hdr[0:4])
	}
	if crc32.Checksum(hdr[0:16], castagnoli) != binary.LittleEndian.Uint32(hdr[16:20]) {
		return 0, geo, corruptf("header CRC mismatch")
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != diskVersion {
		return 0, geo, fmt.Errorf("unsupported disk format version %d", v)
	}
	leafLevel = uint(binary.LittleEndian.Uint16(hdr[6:8]))
	geo = block.Geometry{
		Z:           int(binary.LittleEndian.Uint32(hdr[8:12])),
		PayloadSize: int(binary.LittleEndian.Uint32(hdr[12:16])),
	}
	return leafLevel, geo, nil
}

// checkHeader validates the on-file header against this store's layout.
func (d *Disk) checkHeader() error {
	hdr := make([]byte, diskHeaderSize)
	if _, err := d.f.ReadAt(hdr, 0); err != nil {
		return corruptf("storage: disk store %s has no readable header (%v)", d.path, err)
	}
	leafLevel, geo, err := parseHeader(hdr)
	if err != nil {
		return fmt.Errorf("storage: disk store %s: %w", d.path, err)
	}
	if leafLevel != d.tr.LeafLevel() || geo != d.geo {
		return fmt.Errorf("storage: disk store %s holds L=%d %+v, want L=%d %+v",
			d.path, leafLevel, geo, d.tr.LeafLevel(), d.geo)
	}
	return nil
}

// scanEpoch recovers the store-global epoch counter: one sequential pass
// over the frame headers, keeping the maximum. Torn frames still count —
// their (possibly garbage) epoch only pushes the counter up, which is
// safe: epochs need to be monotonic, not dense. Capped at a sane bound
// so header garbage cannot push the counter near overflow.
func (d *Disk) scanEpoch() error {
	if _, err := d.f.Seek(diskHeaderSize, io.SeekStart); err != nil {
		return fmt.Errorf("storage: scan disk store: %w", err)
	}
	r := bufio.NewReaderSize(d.f, 1<<20)
	hdr := make([]byte, frameHeaderSize)
	var max uint64
	nodes := d.tr.Nodes()
	const epochCap = 1 << 48 // plenty for any real run; garbage beyond it is ignored
	for i := uint64(0); i < nodes; i++ {
		if _, err := io.ReadFull(r, hdr); err != nil {
			return fmt.Errorf("storage: scan disk store frame %d: %w", i, err)
		}
		if ep := binary.LittleEndian.Uint64(hdr[0:8]); ep > max && ep < epochCap {
			max = ep
		}
		if _, err := r.Discard(d.slotSize - frameHeaderSize); err != nil {
			return fmt.Errorf("storage: scan disk store frame %d: %w", i, err)
		}
	}
	d.epoch = max
	return nil
}

// SetCrashWrite installs (or clears, with nil) the kill-mid-write test
// hook. See the crashWrite field doc.
func (d *Disk) SetCrashWrite(hook func(frameLen int) (tear int, err error)) {
	d.mu.Lock()
	d.crashWrite = hook
	d.mu.Unlock()
}

// SetBulkWorkers bounds the goroutines used by ReadBuckets and
// WriteBuckets, the calling goroutine included (it claims buckets beside
// n-1 helpers): 0 (the default) means one per available CPU, 1 forces
// serial execution, and any other value is used as given.
func (d *Disk) SetBulkWorkers(n int) { d.bulkWorkers = n }

// bulkParallel decides whether a bulk call over n buckets is worth
// fanning out.
func (d *Disk) bulkParallel(n int) bool {
	if n < 2 || d.bulkWorkers == 1 {
		return false
	}
	return n*d.geo.BucketSize() >= bulkMinBytes
}

// pt returns the reusable per-bucket write plaintext staging buffer.
// Caller holds mu.
func (d *Disk) pt() []byte {
	if cap(d.ptBuf) < d.geo.BucketSize() {
		d.ptBuf = make([]byte, d.geo.BucketSize())
	}
	return d.ptBuf[:d.geo.BucketSize()]
}

// fr returns the reusable per-bucket frame staging buffer. Caller holds
// mu.
func (d *Disk) fr() []byte {
	if cap(d.frBuf) < d.slotSize {
		d.frBuf = make([]byte, d.slotSize)
	}
	return d.frBuf[:d.slotSize]
}

// readFrame reads node n's raw frame into fr (len slotSize) and
// validates it. Returns (ciphertext view into fr, nil) for a good
// frame, (nil, nil) for a never-written slot, or a FrameError.
func (d *Disk) readFrame(n tree.Node, fr []byte) ([]byte, error) {
	if _, err := d.f.ReadAt(fr, d.slotOffset(n)); err != nil {
		return nil, fmt.Errorf("storage: disk read bucket %d: %w", n, err)
	}
	epoch := binary.LittleEndian.Uint64(fr[0:8])
	length := binary.LittleEndian.Uint32(fr[8:12])
	crc := binary.LittleEndian.Uint32(fr[12:16])
	if epoch == 0 && length == 0 && crc == 0 {
		return nil, nil // never written
	}
	if int(length) > d.slotSize-frameHeaderSize {
		return nil, &FrameError{Node: n, Level: d.tr.Level(n), Epoch: epoch, Reason: "implausible frame length"}
	}
	sum := crc32.Checksum(fr[0:12], castagnoli)
	sum = crc32.Update(sum, castagnoli, fr[frameHeaderSize:frameHeaderSize+int(length)])
	if sum != crc {
		return nil, &FrameError{Node: n, Level: d.tr.Level(n), Epoch: epoch, Reason: "CRC mismatch (torn or corrupted write)"}
	}
	return fr[frameHeaderSize : frameHeaderSize+int(length)], nil
}

// readSlot reads and decodes one bucket using caller-owned staging: the
// frame lands in fr, and the result's payloads view st.
func (d *Disk) readSlot(n tree.Node, fr []byte, st *readStage) (block.Bucket, error) {
	ct, err := d.readFrame(n, fr)
	if err != nil {
		return block.Bucket{}, err
	}
	if ct != nil && len(ct) != crypt.SealedSize(d.geo.BucketSize()) {
		// A valid frame whose payload is not a sealed bucket image can
		// only come from out-of-band tampering (SetCiphertext with alien
		// bytes); it is corrupt at the decode level.
		return block.Bucket{}, corruptf("storage: bucket %d sealed image is %d bytes, want %d",
			n, len(ct), crypt.SealedSize(d.geo.BucketSize()))
	}
	return decodeSealed(d.eng, d.geo, d.tr, n, ct, st)
}

// frame builds a complete frame for ct with the given epoch into fr.
func (d *Disk) frame(fr []byte, epoch uint64, ct []byte) {
	binary.LittleEndian.PutUint64(fr[0:8], epoch)
	binary.LittleEndian.PutUint32(fr[8:12], uint32(len(ct)))
	sum := crc32.Checksum(fr[0:12], castagnoli)
	binary.LittleEndian.PutUint32(fr[12:16], crc32.Update(sum, castagnoli, ct))
	copy(fr[frameHeaderSize:], ct)
}

// writeFrame writes a staged frame to node n's slot, honoring the crash
// hook (hook already resolved by the caller so bulk calls consult it
// once).
func (d *Disk) writeFrame(n tree.Node, fr []byte) error {
	if _, err := d.f.WriteAt(fr, d.slotOffset(n)); err != nil {
		return fmt.Errorf("storage: disk write bucket %d: %w", n, err)
	}
	return nil
}

// tearFrame simulates a kill mid-pwrite: the first tear bytes of fr
// land in n's slot, the rest of the old frame survives.
func (d *Disk) tearFrame(n tree.Node, fr []byte, tear int) {
	if tear <= 0 {
		return
	}
	if tear > len(fr) {
		tear = len(fr)
	}
	d.f.WriteAt(fr[:tear], d.slotOffset(n)) // best effort: the process is "dying"
}

// ReadBucket implements Backend.
func (d *Disk) ReadBucket(n tree.Node) (block.Bucket, error) {
	if !d.tr.ValidNode(n) {
		return block.Bucket{}, fmt.Errorf("storage: node %d out of range", n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cnt.BucketReads++
	d.one.fit(d.geo)
	return d.readSlot(n, d.fr(), &d.one)
}

// WriteBucket implements Backend.
func (d *Disk) WriteBucket(n tree.Node, b *block.Bucket) error {
	if !d.tr.ValidNode(n) {
		return fmt.Errorf("storage: node %d out of range", n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cnt.BucketWrites++
	d.epoch++
	pt, fr := d.pt(), d.fr()
	if err := d.geo.EncodeBucket(pt, b); err != nil {
		return err
	}
	ct := fr[frameHeaderSize:]
	if err := d.eng.Seal(ct, pt); err != nil {
		return err
	}
	d.frame(fr, d.epoch, ct)
	if hook := d.crashWrite; hook != nil {
		if tear, err := hook(len(fr)); err != nil {
			d.tearFrame(n, fr, tear)
			return err
		}
	}
	if err := d.writeFrame(n, fr); err != nil {
		return err
	}
	if d.SyncWrites {
		if err := d.f.Sync(); err != nil {
			return fmt.Errorf("storage: disk sync: %w", err)
		}
	}
	return nil
}

// ReadBuckets implements BulkBackend: validation and counting under mu,
// then pread+Open+decode, fanned out above bulkMinBytes. Each bucket
// decodes into its own staging slot, serial or not, so every result
// stays valid until the next bulk read. Disjoint slots make concurrent
// preads safe without holding mu across IO.
func (d *Disk) ReadBuckets(ns []tree.Node, out []block.Bucket) error {
	if len(ns) != len(out) {
		return fmt.Errorf("storage: bulk read of %d nodes into %d slots", len(ns), len(out))
	}
	d.rdMu.Lock()
	defer d.rdMu.Unlock()
	d.mu.Lock()
	for _, n := range ns {
		if !d.tr.ValidNode(n) {
			d.mu.Unlock()
			return fmt.Errorf("storage: node %d out of range", n)
		}
	}
	d.cnt.BucketReads += uint64(len(ns))
	parallel := d.bulkParallel(len(ns))
	slots := 1
	if parallel {
		slots = len(ns)
	}
	d.rdFr = growSlots(d.rdFr, slots, d.slotSize)
	d.rd = growStages(d.rd, len(ns), d.geo)
	frs, sts := d.rdFr, d.rd
	d.mu.Unlock()
	if !parallel {
		for i := range ns {
			out[i] = block.Bucket{}
			bk, err := d.readSlot(ns[i], frs[0], &sts[i])
			if err != nil {
				return err
			}
			out[i] = bk
		}
		return nil
	}
	return par.ForEach(d.bulkWorkers, len(ns), func(i int) error {
		out[i] = block.Bucket{}
		bk, err := d.readSlot(ns[i], frs[i], &sts[i])
		if err != nil {
			return err
		}
		out[i] = bk
		return nil
	})
}

// WriteBuckets implements BulkBackend: epochs are claimed under mu, the
// encode+Seal+pwrite work fans out into disjoint slots, and the crash
// hook is consulted exactly once for the whole call (before any frame
// reaches the file) so kill schedules replay deterministically under
// parallel fan-out.
func (d *Disk) WriteBuckets(ns []tree.Node, bks []block.Bucket) error {
	if len(ns) != len(bks) {
		return fmt.Errorf("storage: bulk write of %d nodes with %d buckets", len(ns), len(bks))
	}
	d.wrMu.Lock()
	defer d.wrMu.Unlock()
	d.mu.Lock()
	for _, n := range ns {
		if !d.tr.ValidNode(n) {
			d.mu.Unlock()
			return fmt.Errorf("storage: node %d out of range", n)
		}
	}
	d.cnt.BucketWrites += uint64(len(ns))
	if cap(d.wrEp) < len(ns) {
		d.wrEp = make([]uint64, len(ns))
	}
	d.wrEp = d.wrEp[:len(ns)]
	for i := range ns {
		d.epoch++
		d.wrEp[i] = d.epoch
	}
	eps := d.wrEp
	parallel := d.bulkParallel(len(ns))
	slots := 1
	if parallel {
		slots = len(ns)
	}
	d.wrFr = growSlots(d.wrFr, slots, d.slotSize)
	d.wrPt = growSlots(d.wrPt, slots, d.geo.BucketSize())
	frs, pts := d.wrFr, d.wrPt
	hook := d.crashWrite
	d.mu.Unlock()
	if hook != nil {
		if tear, err := hook(d.slotSize); err != nil {
			// The kill lands on the first frame of the batch: stage it
			// for real so the torn bytes are a genuine old/new mixture.
			if tear > 0 && len(ns) > 0 {
				if encErr := d.geo.EncodeBucket(pts[0], &bks[0]); encErr == nil {
					ct := frs[0][frameHeaderSize:]
					if sealErr := d.eng.Seal(ct, pts[0]); sealErr == nil {
						d.frame(frs[0], eps[0], ct)
						d.tearFrame(ns[0], frs[0], tear)
					}
				}
			}
			return err
		}
	}
	stage := func(i, slot int) error {
		if err := d.geo.EncodeBucket(pts[slot], &bks[i]); err != nil {
			return err
		}
		ct := frs[slot][frameHeaderSize:]
		if err := d.eng.Seal(ct, pts[slot]); err != nil {
			return err
		}
		d.frame(frs[slot], eps[i], ct)
		return d.writeFrame(ns[i], frs[slot])
	}
	var err error
	if !parallel {
		for i := range ns {
			if err = stage(i, 0); err != nil {
				break
			}
		}
	} else {
		err = par.ForEach(d.bulkWorkers, len(ns), func(i int) error {
			return stage(i, i)
		})
	}
	if err != nil {
		// A subset of the slots may already hold new frames; each frame
		// is individually consistent and the caller fail-stops anyway.
		return err
	}
	if d.SyncWrites {
		if err := d.f.Sync(); err != nil {
			return fmt.Errorf("storage: disk sync: %w", err)
		}
	}
	return nil
}

// Geometry implements Backend.
func (d *Disk) Geometry() block.Geometry { return d.geo }

// Tree implements Medium.
func (d *Disk) Tree() tree.Tree { return d.tr }

// Counters implements Backend.
func (d *Disk) Counters() Counters {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cnt
}

// Ciphertext implements Medium. Unlike Mem it returns a copy (the live
// bytes are on disk). A torn frame still returns its raw sealed region —
// this is the adversary view, not the validated one — so recovery can
// snapshot and compare media without tripping over frame state.
func (d *Disk) Ciphertext(n tree.Node) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	fr := d.fr()
	if _, err := d.f.ReadAt(fr, d.slotOffset(n)); err != nil {
		return nil
	}
	epoch := binary.LittleEndian.Uint64(fr[0:8])
	length := binary.LittleEndian.Uint32(fr[8:12])
	crc := binary.LittleEndian.Uint32(fr[12:16])
	if epoch == 0 && length == 0 && crc == 0 {
		return nil // never written
	}
	ln := int(length)
	if ln <= 0 || ln > d.slotSize-frameHeaderSize {
		ln = d.slotSize - frameHeaderSize // garbage length: expose the whole region
	}
	return append([]byte(nil), fr[frameHeaderSize:frameHeaderSize+ln]...)
}

// SetCiphertext implements Medium: the raw image is re-framed under a
// fresh epoch (nil zeroes the slot back to never-written). Recovery uses
// this to rewrite the medium from a checkpoint, which as a side effect
// clears torn frames.
func (d *Disk) SetCiphertext(n tree.Node, ct []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fr := d.fr()
	if ct == nil {
		for i := range fr {
			fr[i] = 0
		}
		d.writeFrame(n, fr)
		return
	}
	if len(ct) > d.slotSize-frameHeaderSize {
		ct = ct[:d.slotSize-frameHeaderSize] // cannot exceed the slot; tampering hook only
	}
	d.epoch++
	// Zero the tail beyond the new frame so stale bytes from a longer
	// previous image cannot linger past the CRC-covered region.
	for i := frameHeaderSize + len(ct); i < len(fr); i++ {
		fr[i] = 0
	}
	d.frame(fr, d.epoch, ct)
	d.writeFrame(n, fr)
}

// AuditFrame validates node n's frame (torn-write check only, no
// decryption) and returns the epoch it carries. Never-written slots
// audit clean with epoch 0. An epoch from the future — greater than the
// store's write counter — is flagged as a FrameError: it can only mean
// a replayed or fabricated frame.
func (d *Disk) AuditFrame(n tree.Node) (epoch uint64, err error) {
	if !d.tr.ValidNode(n) {
		return 0, fmt.Errorf("storage: node %d out of range", n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	ct, err := d.readFrame(n, d.fr())
	if err != nil {
		if fe, ok := err.(*FrameError); ok {
			return fe.Epoch, err
		}
		return 0, err
	}
	if ct == nil {
		return 0, nil
	}
	ep := binary.LittleEndian.Uint64(d.frBuf[0:8])
	if ep > d.epoch {
		return ep, &FrameError{Node: n, Level: d.tr.Level(n), Epoch: ep, Reason: "epoch from the future (replayed frame?)"}
	}
	return ep, nil
}

// Reset implements Medium: the slot region is dropped and sparsely
// re-extended, reverting every bucket to never-written. The epoch
// counter is preserved (epochs must stay monotonic across the store's
// lifetime for the replayed-frame audit).
func (d *Disk) Reset() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.f.Truncate(diskHeaderSize); err != nil {
		return fmt.Errorf("storage: reset disk store: %w", err)
	}
	if err := d.f.Truncate(d.fileSize()); err != nil {
		return fmt.Errorf("storage: reset disk store: %w", err)
	}
	return nil
}

// Epoch returns the store-global write epoch counter.
func (d *Disk) Epoch() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epoch
}

// Path returns the backing file path.
func (d *Disk) Path() string { return d.path }

// Sync flushes the backing file.
func (d *Disk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.f.Sync()
}

// Close syncs and closes the backing file. The store is unusable after.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if err := d.f.Sync(); err != nil {
		d.f.Close()
		return err
	}
	return d.f.Close()
}

var (
	_ BulkBackend = (*Disk)(nil)
	_ Medium      = (*Disk)(nil)
)
