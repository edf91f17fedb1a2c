package forkoram

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"forkoram/internal/rng"
	"forkoram/internal/storage"
	"forkoram/internal/tree"
)

// diskFixture opens a disk medium sized for cfg in a test temp dir.
func diskFixture(t *testing.T, cfg DeviceConfig) *storage.Disk {
	t.Helper()
	disk, err := NewDiskMedium(cfg, filepath.Join(t.TempDir(), "buckets.oram"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	return disk
}

// corruptFrameOnDisk flips one ciphertext byte of node n's frame in the
// backing file, out of band — the storage-medium adversary. The frame
// must have been written (a never-written slot has nothing to corrupt:
// its header stays all-zero and its payload area is ignored).
func corruptFrameOnDisk(t *testing.T, disk *storage.Disk, n tree.Node) {
	t.Helper()
	if disk.Ciphertext(n) == nil {
		t.Fatalf("fixture rot: bucket %d was never written to disk", n)
	}
	f, err := os.OpenFile(disk.Path(), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	off, size := disk.FrameSpan(n)
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, off+int64(size)/2); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xFF
	if _, err := f.WriteAt(buf, off+int64(size)/2); err != nil {
		t.Fatal(err)
	}
}

// TestServiceOverStorageStacks drives a Service over every storage
// stack: the in-memory medium, the disk store with and without the
// write-through RAM tier, and the disk behind the simulated remote tier
// with and without it. The remote's latency goes through a no-op Sleep
// hook, so nothing really sleeps, and it injects transients. Two
// clients run a mixed read/write load, each on the addresses it owns,
// and check every read against their own last write. Every stack must
// serve the load with no front-door error and read back the oracle
// afterwards; the +tier stacks must serve reads from the RAM tier, the
// remote stacks must make round trips, and the retry layer must absorb
// every transient the remote injected.
func TestServiceOverStorageStacks(t *testing.T) {
	const blocks, clients, ops = 128, 2, 120
	for _, stack := range []string{"mem", "disk", "disk+tier", "remote", "remote+tier"} {
		t.Run(stack, func(t *testing.T) {
			cfg := testServiceConfig(Fork)
			cfg.Device.Blocks = blocks
			cfg.Device.QueueSize = 8
			cfg.QueueDepth = 2 * clients
			if stack != "mem" {
				cfg.Device.Storage.Medium = diskFixture(t, cfg.Device)
			}
			if strings.HasPrefix(stack, "remote") {
				cfg.Device.Storage.Remote = &storage.RemoteConfig{
					Seed:            11,
					ReadLatency:     time.Microsecond,
					WriteLatency:    2 * time.Microsecond,
					PTransientRead:  0.01,
					PTransientWrite: 0.01,
					Sleep:           func(time.Duration) {},
				}
			}
			if strings.HasSuffix(stack, "+tier") {
				cfg.Device.Storage.TierBytes = 1 << 12
			}
			svc, err := NewService(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			ctx := context.Background()
			shadows := make([]map[uint64][]byte, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				shadows[c] = make(map[uint64][]byte)
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					wl := rng.New(uint64(c) + 21)
					shadow := shadows[c]
					for i := 0; i < ops; i++ {
						addr := wl.Uint64n(blocks/clients)*clients + uint64(c)
						if wl.Float64() < 0.5 {
							data := chaosPayload(32, uint64(c), uint64(i)+1)
							if err := svc.Write(ctx, addr, data); err != nil {
								t.Errorf("client %d: write %d: %v", c, addr, err)
								return
							}
							shadow[addr] = data
							continue
						}
						got, err := svc.Read(ctx, addr)
						if err != nil {
							t.Errorf("client %d: read %d: %v", c, addr, err)
							return
						}
						if want := shadowBlock(shadow, addr); !bytes.Equal(got, want) {
							t.Errorf("client %d: read %d returned a stale or foreign block", c, addr)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for addr := uint64(0); addr < blocks; addr++ {
				got, err := svc.Read(ctx, addr)
				if err != nil {
					t.Fatalf("read-back %d: %v", addr, err)
				}
				if want := shadowBlock(shadows[addr%clients], addr); !bytes.Equal(got, want) {
					t.Fatalf("read-back %d does not match the oracle", addr)
				}
			}

			st := svc.Stats().Storage
			t.Logf("tier read hits %d, remote round trips %d, transients %d, retry recovered %d",
				st.Tier.ReadHits, st.Remote.ReadCalls+st.Remote.WriteCalls,
				st.Remote.TransientReads+st.Remote.TransientWrites, st.Retry.Recovered)
			if strings.HasSuffix(stack, "+tier") && st.Tier.ReadHits == 0 {
				t.Error("no read was served from the RAM tier")
			}
			if strings.HasPrefix(stack, "remote") {
				if st.Remote.ReadCalls+st.Remote.WriteCalls == 0 {
					t.Error("no remote round trip")
				}
				injected := st.Remote.TransientReads + st.Remote.TransientWrites
				if injected > 0 && st.Retry.Recovered == 0 {
					t.Errorf("%d transients injected, none recovered by the retry layer", injected)
				}
				if st.Retry.Exhausted > 0 {
					t.Errorf("%d operations exhausted the retry budget", st.Retry.Exhausted)
				}
			}
		})
	}
}

// shadowBlock is a client's last write to addr, or the zero block a
// never-written address reads as.
func shadowBlock(shadow map[uint64][]byte, addr uint64) []byte {
	if b, ok := shadow[addr]; ok {
		return b
	}
	return make([]byte, 32)
}

// TestTransientErrorSurvivesToFrontDoor is the error-wrapping audit's
// regression test for the retryable side: a transient injected at the
// deepest remote layer, with retries disabled and the recovery budget
// spent, must surface at the service front door still satisfying
// errors.Is(err, storage.ErrTransient) — alongside ErrUnrecoverable —
// so operators can tell "the remote was flaky" from "the data is bad".
func TestTransientErrorSurvivesToFrontDoor(t *testing.T) {
	cfg := testServiceConfig(Fork)
	cfg.Device.Storage.Remote = &storage.RemoteConfig{Seed: 1, PTransientRead: 1, PTransientWrite: 1}
	cfg.Device.Storage.Retry = &storage.RetryConfig{Retries: -1}
	cfg.MaxRecoveries = -1
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	_, err = svc.Read(context.Background(), 0)
	if err == nil {
		t.Fatal("read through an always-failing remote succeeded")
	}
	if !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("front-door error %v lost the ErrTransient wrap", err)
	}
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("front-door error %v is not ErrUnrecoverable", err)
	}
	var pe *PoisonedError
	if !errors.As(err, &pe) {
		t.Fatalf("front-door error %v carries no PoisonedError", err)
	}
}

// TestCorruptErrorSurvivesToFrontDoor is the fail-stop side of the same
// audit: a frame corrupted on the disk medium itself must surface as
// errors.Is(err, storage.ErrCorrupt) with the typed *storage.FrameError
// (bucket coordinates) still extractable at the front door.
func TestCorruptErrorSurvivesToFrontDoor(t *testing.T) {
	// Baseline writes every path back immediately (the Fork engine may
	// buffer accesses in its queue), so the root frame is on disk right
	// after the first write.
	cfg := testServiceConfig(Baseline)
	cfg.MaxRecoveries = -1
	disk := diskFixture(t, cfg.Device)
	cfg.Device.Storage.Medium = disk
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	if err := svc.Write(ctx, 3, chaosPayload(32, 1, 1)); err != nil {
		t.Fatal(err)
	}
	// The root is on every path, and after one write it holds a real
	// frame; corrupting it poisons the very next access.
	corruptFrameOnDisk(t, disk, 0)
	_, err = svc.Read(ctx, 3)
	if err == nil {
		t.Fatal("read over a corrupted root frame succeeded")
	}
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("front-door error %v lost the ErrCorrupt wrap", err)
	}
	var fe *storage.FrameError
	if !errors.As(err, &fe) || fe.Node != 0 {
		t.Fatalf("front-door error %v carries no FrameError for the root", err)
	}
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("front-door error %v is not ErrUnrecoverable", err)
	}
}

// TestSnapshotRestoreThroughDiskTier runs the checkpoint round-trip with
// the disk store as the real medium: snapshot, abandon the device,
// restore over the same (re-imaged) disk file, and verify both the
// oracle contents and a full structural scrub.
func TestSnapshotRestoreThroughDiskTier(t *testing.T) {
	cfg := DeviceConfig{Blocks: 48, BlockSize: 16, Seed: 17, Variant: Fork, Integrity: true}
	disk := diskFixture(t, cfg)
	cfg.Storage.Medium = disk
	cfg.Storage.TierBytes = 1 << 12
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle := make(map[uint64][]byte)
	for i := 0; i < 150; i++ {
		addr := uint64(i*5) % 48
		data := payload(16, byte(i+1))
		if err := d.Write(addr, data); err != nil {
			t.Fatal(err)
		}
		oracle[addr] = data
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Marshal through bytes like a real checkpoint store would.
	raw, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := UnmarshalSnapshot(raw, d)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := RestoreDevice(snap2)
	if err != nil {
		t.Fatal(err)
	}
	verifyOracle(t, nd, oracle, "disk-tier restore")
	if err := nd.Scrub(); err != nil {
		t.Fatalf("structural scrub after disk-tier restore: %v", err)
	}
	// The restored image is serving from the same disk file: the restore
	// re-imaged it, so written frames exist on disk and all decode.
	reimaged := 0
	for n := tree.Node(0); n < disk.Tree().Nodes(); n++ {
		if disk.Ciphertext(n) == nil {
			continue
		}
		if _, err := disk.ReadBucket(n); err != nil {
			t.Fatalf("disk bucket %d after restore: %v", n, err)
		}
		reimaged++
	}
	if reimaged == 0 {
		t.Fatal("restore left no written frames on disk")
	}
}

// TestScrubDetectsAndRepairsInjectedCorruption injects frame corruption
// on the disk medium under every bucket the RAM tier holds a healthy
// copy of, then drives the scrub walker over the whole tree: it must
// detect 100% of the injected corruptions, repair each one in place
// from the tier, and leave the device VerifyAll-clean.
func TestScrubDetectsAndRepairsInjectedCorruption(t *testing.T) {
	cfg := DeviceConfig{Blocks: 48, BlockSize: 16, Seed: 23, Variant: Fork, Integrity: true}
	disk := diskFixture(t, cfg)
	cfg.Storage.Medium = disk
	cfg.Storage.TierBytes = 1 << 20 // pin everything the tier has seen
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := d.Write(uint64(i)%48, payload(16, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// Complete the held refill before injecting, so the first scrub
	// slice's release writes no bucket over an injected frame.
	d.Stats()
	tier := d.Tier()
	if tier == nil {
		t.Fatal("TierBytes configured but no tier")
	}
	injected := 0
	nodes := disk.Tree().Nodes()
	for n := tree.Node(0); n < nodes; n++ {
		if _, ok := tier.HealthyBucket(n); !ok {
			continue
		}
		if disk.Ciphertext(n) == nil {
			continue // never flushed to disk: nothing to corrupt
		}
		if n%3 != 0 { // a spread of levels, not every frame
			continue
		}
		corruptFrameOnDisk(t, disk, n)
		injected++
	}
	if injected < 3 {
		t.Fatalf("only %d repairable frames injected — fixture too small", injected)
	}
	var total storage.ScrubStats
	for covered := uint64(0); covered < nodes; covered += 16 {
		st, err := d.ScrubSlice(16)
		if err != nil {
			t.Fatalf("scrub slice at %d: %v", covered, err)
		}
		total.Add(st)
	}
	if got := total.Corrupt(); got != uint64(injected) {
		t.Fatalf("scrub detected %d corruptions, injected %d (stats %+v)", got, injected, total)
	}
	if total.Repaired != uint64(injected) || total.Unrepairable != 0 {
		t.Fatalf("scrub repaired %d/%d (stats %+v)", total.Repaired, injected, total)
	}
	// Repair restored a fully verifiable state: frames, hashes, contents.
	if err := d.Scrub(); err != nil {
		t.Fatalf("structural scrub after repair: %v", err)
	}
	for addr := uint64(0); addr < 48; addr++ {
		if _, err := d.Read(addr); err != nil {
			t.Fatalf("read %d after repair: %v", addr, err)
		}
	}
}

// TestScrubUnrepairableFailsStop: corruption outside the tier's reach
// must not be papered over — the device poisons itself with the typed
// corruption error carrying bucket coordinates.
func TestScrubUnrepairableFailsStop(t *testing.T) {
	cfg := DeviceConfig{Blocks: 48, BlockSize: 16, Seed: 29, Variant: Baseline}
	disk := diskFixture(t, cfg)
	cfg.Storage.Medium = disk // no TierBytes: nothing to repair from
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := d.Write(uint64(i)%48, payload(16, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	corruptFrameOnDisk(t, disk, 0)
	var serr error
	for covered := uint64(0); covered < disk.Tree().Nodes(); covered += 16 {
		if _, serr = d.ScrubSlice(16); serr != nil {
			break
		}
	}
	if serr == nil {
		t.Fatal("scrub over an unrepairable frame reported clean")
	}
	if !errors.Is(serr, storage.ErrCorrupt) {
		t.Fatalf("scrub error %v lost the ErrCorrupt wrap", serr)
	}
	if d.Poisoned() == nil {
		t.Fatal("device kept serving after unrepairable corruption")
	}
}
