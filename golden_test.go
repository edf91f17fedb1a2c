package forkoram

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"forkoram/internal/rng"
)

// TestStoredBytesGolden pins every byte a Fork device stores: a fixed
// stream of about 3,000 Read, Write and 8-op Batch calls, with one
// snapshot midway, must leave the same snapshot images and the same
// sealed bucket in every node as the recorded digests say. A change to
// the serve path's mechanics (bucket encoding, stash layout, bulk
// fan-out) must not move a single stored byte.
//
// Only the Fork variant is pinned. Under Baseline a refill's buckets go
// out in one bulk write whose seals run in parallel, so which bucket
// draws which nonce varies from run to run.
func TestStoredBytesGolden(t *testing.T) {
	cases := []struct {
		name      string
		disk      bool
		integrity bool
		want      string
	}{
		// Mem and Disk seal the same buckets under the same nonces, so
		// they store the same ciphertexts.
		{"mem", false, false, "a6dac8de3b75d8aafc8466274278920c4da3fbe665ab5f7990acad8c81aefe8d"},
		{"disk", true, false, "a6dac8de3b75d8aafc8466274278920c4da3fbe665ab5f7990acad8c81aefe8d"},
		{"mem-integrity", false, true, "158f4714ac1c307b9d49ac742b680acad9a9cc4694802ce5d55faaa8c2619e99"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DeviceConfig{Blocks: 1024, BlockSize: 64, Variant: Fork, Seed: 22,
				Integrity: tc.integrity}
			if tc.disk {
				cfg.Storage.Medium = diskFixture(t, cfg)
			}
			d, err := NewDevice(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := storedDigest(t, d, 3000); got != tc.want {
				t.Fatalf("stored-byte digest %s, want %s", got, tc.want)
			}
		})
	}
}

// storedDigest drives d through a seeded stream of Read, Write and 8-op
// Batch calls, checking every read against a map oracle, and returns the
// SHA-256 of both snapshot images (midway and final) followed by every
// node's ciphertext in node order, each length-prefixed.
func storedDigest(t *testing.T, d *Device, calls int) string {
	t.Helper()
	r := rng.New(7)
	oracle := map[uint64][]byte{}
	payload := func() []byte {
		p := make([]byte, d.BlockSize())
		for i := 0; i < len(p); i += 8 {
			binary.LittleEndian.PutUint64(p[i:], r.Uint64())
		}
		return p
	}
	check := func(addr uint64, got []byte) {
		want := oracle[addr]
		if want == nil {
			want = make([]byte, d.BlockSize())
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read of %d returned the wrong payload", addr)
		}
	}
	h := sha256.New()
	put := func(b []byte) {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(b))))
		h.Write(b)
	}
	snapshot := func() {
		snap, err := d.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		img, err := snap.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		put(img)
	}
	for c := 0; c < calls; c++ {
		if c == calls/2 {
			snapshot()
		}
		switch r.Intn(3) {
		case 0:
			addr := r.Uint64n(d.Blocks())
			got, err := d.Read(addr)
			if err != nil {
				t.Fatal(err)
			}
			check(addr, got)
		case 1:
			addr, p := r.Uint64n(d.Blocks()), payload()
			if err := d.Write(addr, p); err != nil {
				t.Fatal(err)
			}
			oracle[addr] = p
		default:
			ops := make([]BatchOp, 8)
			for i := range ops {
				ops[i] = BatchOp{Addr: r.Uint64n(d.Blocks()), Write: r.Intn(2) == 0}
				if ops[i].Write {
					ops[i].Data = payload()
				}
			}
			// Same-address ops keep program order, so the oracle is
			// checked and updated in op order.
			res, err := d.Batch(ops)
			if err != nil {
				t.Fatal(err)
			}
			for i, op := range ops {
				if op.Write {
					oracle[op.Addr] = op.Data
				} else {
					check(op.Addr, res[i])
				}
			}
		}
	}
	snapshot()
	for n := uint64(0); n < d.tr.Nodes(); n++ {
		put(d.store.Ciphertext(n))
	}
	return hex.EncodeToString(h.Sum(nil))
}
