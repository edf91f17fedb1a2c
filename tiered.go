package forkoram

import (
	"bytes"
	"errors"
	"fmt"

	"forkoram/internal/block"
	"forkoram/internal/mac"
	"forkoram/internal/storage"
	"forkoram/internal/tree"
)

// Aliases re-exporting the storage tier types consumed by
// StorageConfig, so external callers can configure the stack without
// importing the internal package (same idiom as WALStore).
type (
	// DiskMedium is the durable disk bucket store handle returned by
	// NewDiskMedium (a *DiskMedium satisfies storage.Medium).
	DiskMedium = storage.Disk
	// RemoteConfig shapes the simulated remote tier (StorageConfig.Remote).
	RemoteConfig = storage.RemoteConfig
	// RetryConfig shapes the retry layer fronting it (StorageConfig.Retry).
	RetryConfig = storage.RetryConfig
	// FrameError is the typed per-bucket corruption error surfaced by
	// the disk store and scrub walker; errors.As extracts it at the
	// Service front door.
	FrameError = storage.FrameError
)

// StorageConfig selects and shapes the storage tiers of a Device. The
// zero value is the default: an in-memory medium, no remote tier, no
// RAM tier. See DESIGN.md §14 for the full stack picture.
type StorageConfig struct {
	// Medium, when non-nil, is the base bucket store — typically a
	// *storage.Disk opened by the caller, who owns its lifetime (Close
	// it after the device/service is done; the handle is shared across
	// service recovery incarnations like a WAL handle). Its tree and
	// geometry must match the device configuration. NewDevice RESETS
	// the medium (a new device is an empty tree); durable state is
	// recovered through checkpoints + WAL replay, never by trusting
	// frames in place. Nil means a fresh in-memory medium per device.
	Medium storage.Medium
	// Remote, when non-nil, interposes a simulated remote tier between
	// the controller and the medium: per-call latency plus
	// deterministic transient faults. A retry layer (see Retry) is
	// always stacked on top of it.
	Remote *storage.RemoteConfig
	// Retry shapes the retry/timeout/backoff layer fronting the remote
	// tier. Nil uses defaults (DefaultRemoteRetries attempts, no
	// backoff, no deadline). Ignored without Remote.
	Retry *storage.RetryConfig
	// TierBytes, when positive, layers a write-through RAM tier pinning
	// the top tree levels (capacity in bytes, mac.TreetopLevels sizing)
	// over the stack: pinned reads are served from memory, every write
	// still reaches the durable medium, and the tier's copies double as
	// the scrub walker's repair source.
	TierBytes int
}

// StorageStats aggregates the storage-tier layers' counters (zero for
// layers not configured).
type StorageStats struct {
	Tier   mac.Stats
	Remote storage.RemoteStats
	Retry  storage.RetryStats
	Scrub  storage.ScrubStats
}

// Delta returns s - prev, field-wise.
func (s StorageStats) Delta(prev StorageStats) StorageStats {
	return StorageStats{
		Tier:   s.Tier.Delta(prev.Tier),
		Remote: s.Remote.Delta(prev.Remote),
		Retry:  s.Retry.Delta(prev.Retry),
		Scrub:  s.Scrub.Delta(prev.Scrub),
	}
}

// Add accumulates o into s.
func (s *StorageStats) Add(o StorageStats) {
	s.Tier.Add(o.Tier)
	s.Remote.Add(o.Remote)
	s.Retry.Add(o.Retry)
	s.Scrub.Add(o.Scrub)
}

// zero reports whether every counter is zero. Scrub is covered by
// Slices/Frames: every other scrub counter only moves inside a slice.
func (s StorageStats) zero() bool {
	return s.Tier == (mac.Stats{}) && s.Remote == (storage.RemoteStats{}) &&
		s.Retry == (storage.RetryStats{}) && s.Scrub.Slices == 0 && s.Scrub.Frames == 0
}

// storageStats snapshots the live layers' counters.
func (d *Device) storageStats() StorageStats {
	st := StorageStats{Scrub: d.scrubStats}
	if d.tier != nil {
		st.Tier = d.tier.Stats()
	}
	if d.remote != nil {
		st.Remote = d.remote.Stats()
	}
	if d.sretry != nil {
		st.Retry = d.sretry.Stats()
	}
	return st
}

// Tier returns the write-through RAM tier, or nil when not configured.
// Test and diagnostics hook.
func (d *Device) Tier() *mac.Treetop { return d.tier }

// ScrubSlice audits the next `frames` buckets of the base medium — the
// background scrub-and-repair walker's unit of work. Each frame gets
// every applicable check: the disk store's torn-write audit (epoch +
// CRC), a decrypt/decode plausibility check, Merkle verification when
// Integrity is enabled, and a divergence check against the write-through
// RAM tier's healthy copy. A corrupt frame is repaired in place from the
// tier when it holds a copy (and the repair re-audited); otherwise the
// device poisons itself with the typed corruption error — bucket
// coordinates included — so a supervisor heals it by restore + replay
// rather than let a damaged medium keep serving.
//
// The walker holds a cursor across calls, so periodic slices eventually
// cover the whole tree and wrap around. The returned stats are the
// slice's delta; cumulative numbers accrue in Stats().Storage.Scrub.
func (d *Device) ScrubSlice(frames int) (storage.ScrubStats, error) {
	if err := d.enter(); err != nil {
		return storage.ScrubStats{}, err
	}
	defer d.leave()
	if d.poisoned != nil {
		return storage.ScrubStats{}, d.poisoned
	}
	// Audit a quiescent tree: complete the held refill first.
	if err := d.release(); err != nil {
		d.poison(err)
		return storage.ScrubStats{}, d.poisoned
	}
	var st storage.ScrubStats
	st.Slices = 1
	nodes := d.tr.Nodes()
	if frames <= 0 {
		frames = 32
	}
	if uint64(frames) > nodes {
		frames = int(nodes)
	}
	var firstErr error
	for i := 0; i < frames; i++ {
		n := tree.Node(d.scrubCursor % nodes)
		d.scrubCursor++
		st.Frames++
		err := d.auditNode(n, &st)
		if err == nil {
			continue
		}
		if d.repairNode(n) {
			st.Repaired++
			continue
		}
		st.Unrepairable++
		firstErr = fmt.Errorf("forkoram: scrub found unrepairable bucket %d (level %d): %w",
			n, d.tr.Level(n), err)
		break
	}
	d.scrubStats.Add(st)
	if firstErr != nil {
		d.poison(firstErr)
		return st, firstErr
	}
	return st, nil
}

// auditNode runs every applicable health check on one bucket, recording
// what it finds in st. A nil return means the bucket is clean.
func (d *Device) auditNode(n tree.Node, st *storage.ScrubStats) error {
	level := d.tr.Level(n)
	// Frame-level torn-write audit (disk medium only).
	if disk, ok := d.store.(*storage.Disk); ok {
		if _, err := disk.AuditFrame(n); err != nil {
			st.Torn++
			st.NoteCorrupt(level)
			return err
		}
	}
	// Decode-level plausibility: read the base medium directly (no
	// remote latency, no injected faults — scrubbing is maintenance).
	bk, err := d.store.ReadBucket(n)
	if err != nil {
		if errors.Is(err, storage.ErrCorrupt) {
			st.Undecodable++
			st.NoteCorrupt(level)
		}
		return err
	}
	// Merkle audit against the trusted tree.
	if d.verifier != nil {
		if err := d.verifier.VerifyNode(n); err != nil {
			st.HashMismatches++
			st.NoteCorrupt(level)
			return err
		}
	}
	// Tier divergence: the RAM tier's copy is trusted; the medium
	// disagreeing with it means a lost or replayed durable write.
	if d.tier != nil {
		if healthy, ok := d.tier.HealthyBucket(n); ok && !bucketsEqual(&bk, &healthy) {
			st.TierDivergence++
			st.NoteCorrupt(level)
			return fmt.Errorf("forkoram: bucket %d diverges from RAM tier copy: %w", n, storage.ErrCorrupt)
		}
	}
	return nil
}

// repairNode attempts to restore bucket n from the healthy RAM tier,
// reporting success. The repair writes the base medium directly,
// refreshes the Merkle path, and re-audits the frame.
func (d *Device) repairNode(n tree.Node) bool {
	if d.tier == nil {
		return false
	}
	bk, ok := d.tier.HealthyBucket(n)
	if !ok {
		return false
	}
	if err := d.store.WriteBucket(n, &bk); err != nil {
		return false
	}
	if d.verifier != nil {
		d.verifier.Refresh(n)
	}
	var scratch storage.ScrubStats
	return d.auditNode(n, &scratch) == nil
}

// bucketsEqual compares two buckets' real blocks (address, label,
// payload bytes).
func bucketsEqual(a, b *block.Bucket) bool {
	if len(a.Blocks) != len(b.Blocks) {
		return false
	}
	for i := range a.Blocks {
		if a.Blocks[i].Addr != b.Blocks[i].Addr || a.Blocks[i].Label != b.Blocks[i].Label {
			return false
		}
		if !bytes.Equal(a.Blocks[i].Data, b.Blocks[i].Data) {
			return false
		}
	}
	return true
}
