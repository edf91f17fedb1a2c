package forkoram

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"forkoram/internal/faults"
)

// FuzzDeviceOps drives a random operation stream (decoded from the fuzz
// input as single reads and writes) against both device variants and a
// plain map oracle — with and without fault injection. Invariants
// checked on every input:
//
//   - fault-free runs never error and every read matches the oracle;
//   - under faults, a read either matches the oracle or fails with a
//     typed error that poisons the device, after which every operation
//     returns ErrPoisoned — never wrong data with a nil error;
//   - a final quiescent Snapshot → RestoreDevice round-trip (healthy
//     devices only) preserves read-your-writes.
//
// Keep its decoder as it is: the committed inputs pin snapshot bugs
// through the exact streams they decode to.
//
// Run with: go test -fuzz FuzzDeviceOps -fuzztime 30s .
func FuzzDeviceOps(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) { fuzzVariants(t, data, false) })
}

// FuzzDeviceBatchOps is FuzzDeviceOps with two more call kinds: batches
// of 2–5 operations whose addresses may repeat, and Stats calls, which
// complete the Fork variant's held refill mid-stream. It is a separate
// target so that FuzzDeviceOps's committed inputs keep replaying the
// streams they were found with.
//
// Run with: go test -fuzz FuzzDeviceBatchOps -fuzztime 30s .
func FuzzDeviceBatchOps(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) { fuzzVariants(t, data, true) })
}

func fuzzSeeds(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x80, 0x07, 0xFF, 0x00, 0x13})
	f.Add([]byte("snapshot-restore-read-your-writes"))
	f.Add(bytes.Repeat([]byte{0xA5, 0x3C}, 40))
	f.Add(binary.LittleEndian.AppendUint64(nil, 0xDEADBEEFCAFE))
}

func fuzzVariants(t *testing.T, data []byte, batches bool) {
	if len(data) > 512 {
		data = data[:512]
	}
	for _, variant := range []Variant{Baseline, Fork} {
		for _, faulty := range []bool{false, true} {
			fuzzRun(t, data, variant, faulty, batches)
		}
	}
}

func fuzzRun(t *testing.T, data []byte, variant Variant, faulty, batches bool) {
	const blocks, blockSize = 24, 8
	seed := uint64(len(data))
	for _, b := range data {
		seed = seed*131 + uint64(b)
	}
	cfg := DeviceConfig{
		Blocks: blocks, BlockSize: blockSize, QueueSize: 4,
		Seed: seed | 1, Variant: variant, Integrity: true,
	}
	if faulty {
		cfg.Faults = &faults.Config{
			Seed:           seed ^ 0x9E37,
			PTransientRead: 0.02, PTransientWrite: 0.02, PDroppedWrite: 0.02,
			PTornWrite: 0.01, PBitFlip: 0.01, PStaleReplay: 0.01,
		}
	}
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	oracle := make(map[uint64][]byte)
	check := func(addr uint64, got []byte) {
		want, ok := oracle[addr]
		if !ok {
			want = make([]byte, blockSize)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("variant %d faulty=%v: silent corruption at %d: got %x want %x",
				variant, faulty, addr, got, want)
		}
	}
	poisoned := false
	// Each byte pair (a, k) decodes to one call: even k writes payload k
	// at address a, odd k reads a. With batches, k%8 == 6 is instead a
	// batch of 2 + a%4 operations decoded from the following bytes (one
	// byte c each: address c, a write of payload c when c is even), and
	// k%8 == 7 a Stats call.
	for i := 0; i+1 < len(data) && !poisoned; i += 2 {
		addr := uint64(data[i]) % blocks
		switch k := data[i+1]; {
		case batches && k%8 == 7:
			d.Stats()
		case batches && k%8 == 6:
			n := min(2+int(data[i]%4), len(data)-i-2)
			ops := make([]BatchOp, n)
			for j, c := range data[i+2 : i+2+n] {
				ops[j].Addr = uint64(c) % blocks
				if c&1 == 0 {
					ops[j].Write, ops[j].Data = true, bytes.Repeat([]byte{c}, blockSize)
				}
			}
			i += n
			got, err := d.Batch(ops)
			if poisoned = fuzzCheckErr(t, d, err, faulty, "batch"); poisoned {
				continue
			}
			for j, op := range ops {
				if op.Write {
					oracle[op.Addr] = op.Data
				} else {
					check(op.Addr, got[j])
				}
			}
		case k&1 == 0:
			p := bytes.Repeat([]byte{k}, blockSize)
			err := d.Write(addr, p)
			poisoned = fuzzCheckErr(t, d, err, faulty, "write")
			if err == nil {
				oracle[addr] = p
			}
		default:
			got, err := d.Read(addr)
			if poisoned = fuzzCheckErr(t, d, err, faulty, "read"); poisoned {
				continue
			}
			check(addr, got)
		}
	}
	if poisoned {
		// Poisoned devices must stay fail-stopped.
		if _, err := d.Read(0); !errors.Is(err, ErrPoisoned) {
			t.Fatalf("variant %d: poisoned device served a read: %v", variant, err)
		}
		return
	}
	// Healthy end state: snapshot/restore must preserve read-your-writes.
	snap, err := d.Snapshot()
	if err != nil {
		if fuzzCheckErr(t, d, err, faulty, "snapshot") {
			return
		}
		t.Fatalf("variant %d: snapshot: %v", variant, err)
	}
	nd, err := RestoreDevice(snap)
	if err != nil {
		t.Fatalf("variant %d: restore: %v", variant, err)
	}
	for addr, want := range oracle {
		got, err := nd.Read(addr)
		if fuzzCheckErr(t, nd, err, faulty, "post-restore read") {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("variant %d faulty=%v: lost write at %d after restore: got %x want %x",
				variant, faulty, addr, got, want)
		}
	}
}

// fuzzCheckErr validates an operation error against the taxonomy and
// reports whether the device is now poisoned. Errors are only legal on
// fault-injected runs, and must poison.
func fuzzCheckErr(t *testing.T, d *Device, err error, faulty bool, what string) bool {
	if err == nil {
		return false
	}
	if !faulty {
		t.Fatalf("fault-free %s failed: %v", what, err)
	}
	if !typedFailure(err) {
		t.Fatalf("%s failed with untyped error: %v", what, err)
	}
	if d.Poisoned() == nil {
		t.Fatalf("%s failed (%v) without poisoning", what, err)
	}
	return true
}
