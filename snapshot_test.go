package forkoram

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"

	"forkoram/internal/block"
	"forkoram/internal/rng"
	"forkoram/internal/storage"
	"forkoram/internal/tree"
)

func snapFixture(t *testing.T, variant Variant, integrity bool) (*Device, map[uint64][]byte) {
	t.Helper()
	d, err := NewDevice(DeviceConfig{
		Blocks: 48, BlockSize: 16, Seed: 17, Variant: variant, Integrity: integrity,
	})
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
	return d, oracle
}

func verifyOracle(t *testing.T, d *Device, oracle map[uint64][]byte, what string) {
	t.Helper()
	for addr := uint64(0); addr < d.Blocks(); addr++ {
		want, ok := oracle[addr]
		if !ok {
			want = make([]byte, d.BlockSize())
		}
		got, err := d.Read(addr)
		if err != nil {
			t.Fatalf("%s: read %d: %v", what, addr, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: read %d: got %x want %x", what, addr, got[:4], want[:4])
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, variant := range []Variant{Baseline, Fork} {
		for _, integrity := range []bool{false, true} {
			d, oracle := snapFixture(t, variant, integrity)
			snap, err := d.Snapshot()
			if err != nil {
				t.Fatalf("variant %d integrity %v: snapshot: %v", variant, integrity, err)
			}
			// Crash: the old device handle is abandoned; only the medium
			// and the snapshot survive.
			nd, err := RestoreDevice(snap)
			if err != nil {
				t.Fatalf("variant %d integrity %v: restore: %v", variant, integrity, err)
			}
			if err := nd.Scrub(); err != nil {
				t.Fatalf("variant %d integrity %v: scrub after restore: %v", variant, integrity, err)
			}
			verifyOracle(t, nd, oracle, "after restore")
			// The restored device keeps working: more writes, then audit.
			for i := 0; i < 60; i++ {
				addr := uint64(i*11) % 48
				data := payload(16, byte(0x80+i))
				if err := nd.Write(addr, data); err != nil {
					t.Fatalf("write after restore: %v", err)
				}
				oracle[addr] = data
			}
			verifyOracle(t, nd, oracle, "after post-restore writes")
			if err := nd.Scrub(); err != nil {
				t.Fatalf("variant %d integrity %v: final scrub: %v", variant, integrity, err)
			}
			// Counters carried over.
			if nd.Stats().Writes < 150 {
				t.Fatalf("restored device lost its counters: %+v", nd.Stats())
			}
		}
	}
}

func TestSnapshotMarshalRoundTrip(t *testing.T) {
	d, oracle := snapFixture(t, Fork, true)
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := UnmarshalSnapshot(buf, d)
	if err != nil {
		t.Fatal(err)
	}
	buf2, err := decoded.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatal("marshal → unmarshal → marshal is not the identity")
	}
	nd, err := RestoreDevice(decoded)
	if err != nil {
		t.Fatalf("restore from decoded snapshot: %v", err)
	}
	verifyOracle(t, nd, oracle, "after decoded restore")
	if err := nd.Scrub(); err != nil {
		t.Fatalf("scrub after decoded restore: %v", err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	d, _ := snapFixture(t, Baseline, false)
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSnapshot(nil, d); err == nil {
		t.Fatal("accepted empty input")
	}
	if _, err := UnmarshalSnapshot(buf[:len(buf)/2], d); err == nil {
		t.Fatal("accepted truncated snapshot")
	}
	bad := append([]byte(nil), buf...)
	bad[0] ^= 0xFF
	if _, err := UnmarshalSnapshot(bad, d); err == nil {
		t.Fatal("accepted bad magic")
	}
	// Geometry mismatch: a device with different Blocks.
	other, err := NewDevice(DeviceConfig{Blocks: 200, BlockSize: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSnapshot(buf, other); err == nil {
		t.Fatal("accepted snapshot against mismatched device")
	}
}

// TestRestoreRejectsDivergedMedium: with integrity, restoring a snapshot
// over a medium that advanced past it (the crashed client kept writing)
// must be rejected with a typed corruption error — resuming would fork
// history silently.
func TestRestoreRejectsDivergedMedium(t *testing.T) {
	d, _ := snapFixture(t, Fork, true)
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := d.Write(uint64(i), payload(16, 0xEE)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := RestoreDevice(snap); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("restore over diverged medium: got %v, want wrapped ErrCorrupt", err)
	}
}

// TestRestoreRejectsTamperedMedium: same, for out-of-band corruption.
func TestRestoreRejectsTamperedMedium(t *testing.T) {
	d, _ := snapFixture(t, Baseline, true)
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	tamperSomeBucket(t, d)
	if _, err := RestoreDevice(snap); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("restore over tampered medium: got %v, want wrapped ErrCorrupt", err)
	}
}

func tamperSomeBucket(t *testing.T, d *Device) {
	t.Helper()
	for n := uint64(0); n < d.tr.Nodes(); n++ {
		if ct := d.store.Ciphertext(n); len(ct) > 0 {
			ct[len(ct)/3] ^= 0x40
			return
		}
	}
	t.Fatal("no written bucket to tamper with")
}

func TestScrubDetectsLatentCorruption(t *testing.T) {
	d, _ := snapFixture(t, Fork, true)
	if err := d.Scrub(); err != nil {
		t.Fatalf("clean scrub: %v", err)
	}
	tamperSomeBucket(t, d)
	err := d.Scrub()
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("scrub over tampered medium: got %v, want wrapped ErrCorrupt", err)
	}
	var ie *storage.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("scrub error carries no IntegrityError: %v", err)
	}
}

// TestScrubMidStream: Scrub must hold between any two synchronous
// operations, including while the Fork handle is open (merged buckets
// legitimately hold stale copies then).
func TestScrubMidStream(t *testing.T) {
	d, err := NewDevice(DeviceConfig{Blocks: 32, BlockSize: 16, Seed: 23, Variant: Fork, Integrity: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if err := d.Write(uint64(i)%32, payload(16, byte(i))); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			if err := d.Scrub(); err != nil {
				t.Fatalf("mid-stream scrub after op %d: %v", i, err)
			}
		}
	}
}

func TestSnapshotLeavesLiveDeviceConsistent(t *testing.T) {
	for _, variant := range []Variant{Baseline, Fork} {
		d, oracle := snapFixture(t, variant, true)
		if _, err := d.Snapshot(); err != nil {
			t.Fatal(err)
		}
		// The snapshotted (still live) device keeps serving correctly.
		for i := 0; i < 60; i++ {
			addr := uint64(i * 3 % 48)
			data := payload(16, byte(0x40+i))
			if err := d.Write(addr, data); err != nil {
				t.Fatalf("variant %d: write after snapshot: %v", variant, err)
			}
			oracle[addr] = data
		}
		verifyOracle(t, d, oracle, "live device after snapshot")
		if err := d.Scrub(); err != nil {
			t.Fatalf("variant %d: scrub: %v", variant, err)
		}
	}
}

// countingMedium records the node of every bucket read and write that
// reaches the base medium, bulk calls included.
type countingMedium struct {
	storage.Medium
	mu     sync.Mutex
	reads  []tree.Node
	writes []tree.Node
}

func (m *countingMedium) note(dst *[]tree.Node, ns ...tree.Node) {
	m.mu.Lock()
	*dst = append(*dst, ns...)
	m.mu.Unlock()
}

func (m *countingMedium) ReadBucket(n tree.Node) (block.Bucket, error) {
	m.note(&m.reads, n)
	return m.Medium.ReadBucket(n)
}

func (m *countingMedium) WriteBucket(n tree.Node, b *block.Bucket) error {
	m.note(&m.writes, n)
	return m.Medium.WriteBucket(n, b)
}

func (m *countingMedium) ReadBuckets(ns []tree.Node, out []block.Bucket) error {
	m.note(&m.reads, ns...)
	return m.Medium.ReadBuckets(ns, out)
}

func (m *countingMedium) WriteBuckets(ns []tree.Node, bks []block.Bucket) error {
	m.note(&m.writes, ns...)
	return m.Medium.WriteBuckets(ns, bks)
}

// TestSnapshotWritesOnlyTheForkHandle pins a checkpoint's medium
// traffic on a seeded stream with mid-stream Snapshots. A Snapshot reads
// no bucket. Under Fork it writes the held access's refill and then
// exactly the fork handle: the released access's path above its topmost
// written node, whether or not those buckets hold blocks. Baseline
// writes nothing. Each snapshot, restored over the medium image saved
// with it, matches a map oracle and passes Scrub.
func TestSnapshotWritesOnlyTheForkHandle(t *testing.T) {
	type stack struct {
		name            string
		variant         Variant
		depth           int
		integrity, tier bool
	}
	var stacks []stack
	for _, e := range []struct {
		name    string
		variant Variant
		depth   int
	}{{"fork/depth1", Fork, 1}, {"fork/depth4", Fork, 4}, {"baseline", Baseline, 1}} {
		for _, integrity := range []bool{false, true} {
			for _, tier := range []bool{false, true} {
				name := fmt.Sprintf("%s/integrity=%v/tier=%v", e.name, integrity, tier)
				stacks = append(stacks, stack{name, e.variant, e.depth, integrity, tier})
			}
		}
	}
	for _, medium := range []string{"mem", "disk"} {
		for _, s := range stacks {
			t.Run(medium+"/"+s.name, func(t *testing.T) {
				const blocks, blockSize = 64, 16
				cfg := DeviceConfig{Blocks: blocks, BlockSize: blockSize, Seed: 41, Variant: s.variant,
					Integrity: s.integrity, PipelineDepth: s.depth}
				var base storage.Medium
				if medium == "disk" {
					base = diskFixture(t, cfg)
				} else {
					dc := cfg.withDefaults()
					tr, err := planDeviceTree(dc)
					if err != nil {
						t.Fatal(err)
					}
					if base, err = storage.NewMem(tr, block.Geometry{Z: dc.Z, PayloadSize: blockSize}, dc.Key); err != nil {
						t.Fatal(err)
					}
				}
				m := &countingMedium{Medium: base}
				cfg.Storage.Medium = m
				if s.tier {
					cfg.Storage.TierBytes = 1 << 20
				}
				obs := &obsTrace{}
				cfg.Observer = obs.hook()
				d, err := NewDevice(cfg)
				if err != nil {
					t.Fatal(err)
				}
				type checkpoint struct {
					snap   *Snapshot
					medium map[tree.Node][]byte
					oracle map[uint64][]byte
				}
				var ckpts []checkpoint
				oracle := map[uint64][]byte{}
				src := rng.New(5)
				for i := 0; i < 240; i++ {
					addr := src.Uint64n(blocks)
					data := bytes.Repeat([]byte{byte(i)}, blockSize)
					switch k := src.Uint64n(16); {
					case k < 6:
						if err := d.Write(addr, data); err != nil {
							t.Fatal(err)
						}
						oracle[addr] = data
					case k < 10:
						got, err := d.Read(addr)
						if err != nil {
							t.Fatal(err)
						}
						if want, ok := oracle[addr]; ok && !bytes.Equal(got, want) {
							t.Fatalf("op %d: read %d returned %x, want %x", i, addr, got, want)
						}
					case k < 15:
						ops := make([]BatchOp, 2+src.Uint64n(6))
						for j := range ops {
							ops[j] = BatchOp{Addr: (addr + src.Uint64n(8)) % blocks, Write: true,
								Data: bytes.Repeat([]byte{byte(i), byte(j)}, blockSize/2)}
						}
						if _, err := d.Batch(ops); err != nil {
							t.Fatal(err)
						}
						for _, op := range ops {
							oracle[op.Addr] = op.Data
						}
					default:
						reads, writes, seen := len(m.reads), len(m.writes), len(obs.labels)
						snap, err := d.Snapshot()
						if err != nil {
							t.Fatal(err)
						}
						if got := m.reads[reads:]; len(got) != 0 {
							t.Fatalf("op %d: Snapshot read buckets %v", i, got)
						}
						var want []tree.Node
						if s.variant == Fork && len(obs.labels) > 0 {
							last := len(obs.labels) - 1
							if last >= seen {
								want = append(want, obs.writes[last]...) // the released refill
							}
							top := d.tr.LeafLevel() + 1
							if w := obs.writes[last]; len(w) > 0 {
								top = d.tr.Level(w[len(w)-1])
							}
							for lvl := uint(0); lvl < top; lvl++ {
								want = append(want, d.tr.NodeAt(obs.labels[last], lvl))
							}
						}
						if got := m.writes[writes:]; !slices.Equal(got, want) {
							t.Fatalf("op %d: Snapshot wrote %v, want %v", i, got, want)
						}
						ckpts = append(ckpts, checkpoint{snap, cloneMedium(d), maps.Clone(oracle)})
					}
				}
				if len(ckpts) < 5 {
					t.Fatalf("only %d snapshots in the stream", len(ckpts))
				}
				if d.Stats().Pipeline.Windows == 0 && s.depth > 1 && !s.integrity && !s.tier {
					t.Fatal("no batch pipelined")
				}
				if err := d.Scrub(); err != nil {
					t.Fatal(err)
				}
				// Crash at each checkpoint: the medium reverts to its image
				// and the snapshot restores the client state.
				for i, ck := range ckpts {
					restoreMedium(m, d.tr, ck.medium)
					nd, err := RestoreDevice(ck.snap)
					if err != nil {
						t.Fatalf("checkpoint %d: restore: %v", i, err)
					}
					if err := nd.Scrub(); err != nil {
						t.Fatalf("checkpoint %d: scrub after restore: %v", i, err)
					}
					verifyOracle(t, nd, ck.oracle, fmt.Sprintf("checkpoint %d", i))
				}
			})
		}
	}
}

// TestSnapshotDetectsLatentCorruption: with Integrity, a Snapshot audits
// the whole medium before it writes the fork handle, so a bucket
// tampered off every path the Snapshot writes fails it with a typed
// corruption error, instead of reaching a backup whose restore would
// reject it.
func TestSnapshotDetectsLatentCorruption(t *testing.T) {
	for _, variant := range []Variant{Baseline, Fork} {
		d, _ := snapFixture(t, variant, true)
		// Everything the Snapshot writes (the held refill and the handle)
		// lies on the held access's path.
		tampered := false
		for n := uint64(0); n < d.tr.Nodes() && !tampered; n++ {
			if d.held == nil || !d.tr.OnPath(d.held.Label, n) {
				tampered = d.verifier.Tamper(n)
			}
		}
		if !tampered {
			t.Fatalf("variant %d: no written bucket off the held path", variant)
		}
		if _, err := d.Snapshot(); !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("variant %d: snapshot over tampered medium: got %v, want wrapped ErrCorrupt", variant, err)
		}
		if d.Poisoned() == nil {
			t.Fatalf("variant %d: failed snapshot left the device healthy", variant)
		}
	}
}

// TestScrubRejectsStaleCopiesOffTheHandle: on a healthy device only the
// fork handle may hold stale copies. A duplicate of a stored block is
// legal in a handle bucket and a violation elsewhere, and so is a stored
// copy of a block that is also in the stash.
func TestScrubRejectsStaleCopiesOffTheHandle(t *testing.T) {
	// fixture returns a quiescent device, its handle test, and a block
	// stored off the handle with the bucket holding it.
	fixture := func() (*Device, func(tree.Node) bool, block.Block, tree.Node) {
		d, _ := snapFixture(t, Fork, false)
		d.Stats() // complete the held refill
		label, levels, ok := d.eng.Handle()
		if !ok || levels == 0 {
			t.Fatalf("no fork handle after the held refill (levels %d, ok %v)", levels, ok)
		}
		inHandle := func(n tree.Node) bool { return d.tr.Level(n) < levels && d.tr.OnPath(label, n) }
		for n := uint64(0); n < d.tr.Nodes(); n++ {
			bk, err := d.store.ReadBucket(n)
			if err != nil {
				t.Fatal(err)
			}
			if len(bk.Blocks) > 0 && !inHandle(n) {
				b := bk.Blocks[0]
				b.Data = append([]byte(nil), b.Data...)
				return d, inHandle, b, n
			}
		}
		t.Fatal("no block stored off the handle")
		return nil, nil, block.Block{}, 0
	}
	// addCopy stores a copy of b in the first bucket on b's path that
	// inHandle accepts, other than skip, with room for it.
	addCopy := func(d *Device, b block.Block, skip tree.Node, where func(tree.Node) bool) {
		for lvl := uint(0); lvl <= d.tr.LeafLevel(); lvl++ {
			n := d.tr.NodeAt(b.Label, lvl)
			if n == skip || !where(n) {
				continue
			}
			bk, err := d.store.ReadBucket(n)
			if err != nil {
				t.Fatal(err)
			}
			if len(bk.Blocks) == d.cfg.Z {
				continue
			}
			cp := block.Bucket{Blocks: append(slices.Clone(bk.Blocks), b)}
			if err := d.store.WriteBucket(n, &cp); err != nil {
				t.Fatal(err)
			}
			return
		}
		t.Fatal("no bucket with room on the block's path")
	}

	d, inHandle, b, n := fixture()
	addCopy(d, b, n, inHandle)
	if err := d.Scrub(); err != nil {
		t.Fatalf("duplicate in a handle bucket: %v", err)
	}

	d, inHandle, b, n = fixture()
	addCopy(d, b, n, func(n tree.Node) bool { return !inHandle(n) })
	if err := d.Scrub(); err == nil {
		t.Fatal("scrub accepted a duplicate off the handle")
	}

	d, _, b, _ = fixture()
	d.ctl.Stash().Put(b)
	if err := d.Scrub(); err == nil {
		t.Fatal("scrub accepted a stored copy of a stash block off the handle")
	}
}
