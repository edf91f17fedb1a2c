package forkoram

import (
	"bytes"
	"fmt"
	"testing"

	"forkoram/internal/adversary"
	"forkoram/internal/rng"
)

// holdStream drives a seeded stream through a raw Fork device over the
// in-memory medium: single reads and writes, batches whose addresses
// repeat, calls that often start at an address the previous call
// served, and mid-stream Stats and Snapshot calls, which complete the
// held refill. Every result is checked against a map oracle, and the
// Stats operation counts against the stream; the stream ends with a
// Snapshot, so the returned trace covers every access.
func holdStream(t *testing.T, depth, queue int) (*obsTrace, *Device) {
	t.Helper()
	const blocks, blockSize = 48, 16
	tr := &obsTrace{}
	d, err := NewDevice(DeviceConfig{
		Blocks: blocks, BlockSize: blockSize, Variant: Fork, Seed: 13,
		QueueSize: queue, PipelineDepth: depth, Observer: tr.hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64][]byte{}
	check := func(what string, addr uint64, got []byte) {
		t.Helper()
		want, ok := oracle[addr]
		if !ok {
			want = make([]byte, blockSize)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("depth %d queue %d: %s of %d read %x, want %x", depth, queue, what, addr, got, want)
		}
	}
	src := rng.New(77)
	var reads, writes uint64
	prev := uint64(0) // an address the previous call served
	for i := 0; i < 300; i++ {
		addr := src.Uint64n(blocks)
		if src.Uint64n(4) == 0 {
			addr = prev // likely the held access's own address
		}
		data := bytes.Repeat([]byte{byte(i)}, blockSize)
		switch k := src.Uint64n(20); {
		case k < 6:
			if err := d.Write(addr, data); err != nil {
				t.Fatal(err)
			}
			oracle[addr] = data
			prev = addr
			writes++
		case k < 12:
			got, err := d.Read(addr)
			if err != nil {
				t.Fatal(err)
			}
			check("read", addr, got)
			prev = addr
			reads++
		case k < 18:
			// Addresses from a small window starting at addr, so a
			// batch repeats some.
			ops := make([]BatchOp, 2+src.Uint64n(8))
			for j := range ops {
				ops[j].Addr = (addr + src.Uint64n(4)) % blocks
				if src.Uint64n(2) == 0 {
					ops[j].Write = true
					ops[j].Data = bytes.Repeat([]byte{byte(i), byte(j)}, blockSize/2)
				}
			}
			prev = ops[len(ops)-1].Addr
			got, err := d.Batch(ops)
			if err != nil {
				t.Fatal(err)
			}
			for j, op := range ops {
				if op.Write {
					oracle[op.Addr] = op.Data
					writes++
				} else {
					check("batch read", op.Addr, got[j])
					reads++
				}
			}
		case k < 19:
			d.Stats()
		default:
			if _, err := d.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Reads != reads || st.Writes != writes {
		t.Fatalf("depth %d queue %d: Stats counts %d reads, %d writes; the stream issued %d, %d",
			depth, queue, st.Reads, st.Writes, reads, writes)
	}
	return tr, d
}

// TestHeldRefillOracleAndTrace pins the held refill: at every queue size
// the stream reads its writes back, each depth's bus trace is a valid
// Fork Path trace (reads and writes are exactly the overlap suffixes of
// the label sequence), and the pipelined depths emit the serial
// device's trace exactly.
func TestHeldRefillOracleAndTrace(t *testing.T) {
	for _, queue := range []int{1, 2, 8} {
		var ref *obsTrace
		for _, depth := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("queue%d/depth%d", queue, depth), func(t *testing.T) {
				tr, d := holdStream(t, depth, queue)
				m := adversary.NewMonitor(d.tr)
				for i := range tr.labels {
					m.Observe(adversary.Observation{Label: tr.labels[i], ReadNodes: tr.reads[i], WriteNodes: tr.writes[i]})
				}
				if err := m.CheckForkConsistency(nil); err != nil {
					t.Fatal(err)
				}
				if depth == 1 {
					ref = tr
					return
				}
				if d.Stats().Pipeline.Windows == 0 {
					t.Fatal("no batch pipelined")
				}
				if err := ref.equal(tr); err != nil {
					t.Fatalf("trace diverged from depth 1: %v", err)
				}
			})
		}
	}
}

// TestLoneRequestsMergeWithHeldAccess: each lone write replaces the
// pending dummy of the previous write's held access, so it costs about
// one traversal instead of a competition against QueueSize-1 dummies.
// A repeat of the held access's address is a stash hit and begins no
// traversal at all. The 2,000-block rows have 512 leaves, so a pending
// dummy often carries the held access's own label; it is replaceable
// too, because the held refill has written nothing yet. The batch rows
// issue every op as a one-op Device.Batch, which must behave exactly
// like Read and Write: same checks, same bus trace.
func TestLoneRequestsMergeWithHeldAccess(t *testing.T) {
	const ops = 1000
	for _, blocks := range []uint64{8 * ops, 2000} {
		t.Run(fmt.Sprintf("blocks%d", blocks), func(t *testing.T) {
			var direct *obsTrace
			for _, batch := range []bool{false, true} {
				name := "read-write"
				if batch {
					name = "one-op-batch"
				}
				t.Run(name, func(t *testing.T) {
					tr := &obsTrace{}
					d, err := NewDevice(DeviceConfig{
						Blocks: blocks, BlockSize: 16, Variant: Fork, Seed: 7, Observer: tr.hook(),
					})
					if err != nil {
						t.Fatal(err)
					}
					write, read := d.Write, d.Read
					if batch {
						write = func(addr uint64, data []byte) error {
							_, err := d.Batch([]BatchOp{{Addr: addr, Write: true, Data: data}})
							return err
						}
						read = func(addr uint64) ([]byte, error) {
							out, err := d.Batch([]BatchOp{{Addr: addr}})
							if err != nil {
								return nil, err
							}
							return out[0], nil
						}
					}
					begun := func() uint64 {
						st := d.eng.Stats()
						return st.RealAccesses + st.DummyAccesses
					}
					for a := uint64(0); a < ops; a++ {
						data := bytes.Repeat([]byte{byte(a)}, 16)
						if err := write(a, data); err != nil {
							t.Fatal(err)
						}
						if a%100 != 0 {
							continue
						}
						before := begun()
						got, err := read(a)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, data) {
							t.Fatalf("repeat read of %d: got %x, want %x", a, got, data)
						}
						if begun() != before || d.held == nil {
							t.Fatalf("repeat of held address %d began %d traversals", a, begun()-before)
						}
					}
					d.Stats()
					per := float64(len(tr.labels)) / ops
					t.Logf("%d leaves: %.3f traversals per lone write", d.Leaves(), per)
					if per >= 1.01 {
						t.Fatalf("%.3f traversals per lone write, want < 1.01", per)
					}
					if !batch {
						direct = tr
						return
					}
					if err := direct.equal(tr); err != nil {
						t.Fatalf("one-op batches diverged from Read and Write: %v", err)
					}
				})
			}
		})
	}
}
