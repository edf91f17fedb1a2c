package block

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"
)

func geo() Geometry { return Geometry{Z: 4, PayloadSize: 64} }

func TestGeometryValidate(t *testing.T) {
	if err := geo().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, g := range []Geometry{{Z: 0, PayloadSize: 64}, {Z: 4, PayloadSize: 0}, {Z: -1, PayloadSize: -1}} {
		if err := g.Validate(); err == nil {
			t.Fatalf("geometry %+v should be invalid", g)
		}
	}
}

func TestBucketSize(t *testing.T) {
	g := geo()
	// 4 slots * (16B header + 64B payload) = 320B.
	if got := g.BucketSize(); got != 320 {
		t.Fatalf("bucket size %d want 320", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g := geo()
	payload := func(fill byte) []byte {
		d := make([]byte, g.PayloadSize)
		for i := range d {
			d[i] = fill
		}
		return d
	}
	in := Bucket{Blocks: []Block{
		{Addr: 10, Label: 3, Data: payload(0xAA)},
		{Addr: 99, Label: 7, Data: payload(0x55)},
	}}
	wire := make([]byte, g.BucketSize())
	if err := g.EncodeBucket(wire, &in); err != nil {
		t.Fatal(err)
	}
	out, err := g.DecodeBucket(wire, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Blocks) != 2 {
		t.Fatalf("decoded %d blocks, want 2", len(out.Blocks))
	}
	for i, blk := range out.Blocks {
		if blk.Addr != in.Blocks[i].Addr || blk.Label != in.Blocks[i].Label {
			t.Fatalf("block %d metadata mismatch: %+v", i, blk)
		}
		if !bytes.Equal(blk.Data, in.Blocks[i].Data) {
			t.Fatalf("block %d payload mismatch", i)
		}
	}
}

// TestEncodePadsDeterministically encodes 0..Z real blocks at payload
// sizes around the header, a cache line and a page into a 0xFF-filled
// window of a larger buffer. Every dummy slot must read DummyAddr, label
// 0 and an all-zero payload, so the encoding never depends on the
// buffer's previous contents, and no byte outside the window may change.
func TestEncodePadsDeterministically(t *testing.T) {
	const guard = 37
	for _, size := range []int{1, 15, 64, 1024, 1025} {
		g := Geometry{Z: 4, PayloadSize: size}
		stride := EncodedBlockSize(size)
		for real := 0; real <= g.Z; real++ {
			var b Bucket
			for i := 0; i < real; i++ {
				d := make([]byte, size)
				for j := range d {
					d[j] = byte(i + j + 1)
				}
				b.Blocks = append(b.Blocks, Block{Addr: uint64(10 + i), Label: uint64(i), Data: d})
			}
			buf := bytes.Repeat([]byte{0xFF}, guard+g.BucketSize()+guard)
			dst := buf[guard : guard+g.BucketSize()]
			if err := g.EncodeBucket(dst, &b); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < guard; i++ {
				if buf[i] != 0xFF || buf[len(buf)-1-i] != 0xFF {
					t.Fatalf("size %d, %d real: encoding wrote outside dst", size, real)
				}
			}
			for s := real; s < g.Z; s++ {
				slot := dst[s*stride : (s+1)*stride]
				if addr := binary.LittleEndian.Uint64(slot); addr != DummyAddr {
					t.Fatalf("size %d, %d real: slot %d addr %#x, want DummyAddr", size, real, s, addr)
				}
				if label := binary.LittleEndian.Uint64(slot[8:]); label != 0 {
					t.Fatalf("size %d, %d real: slot %d label %d, want 0", size, real, s, label)
				}
				if !bytes.Equal(slot[headerSize:], make([]byte, size)) {
					t.Fatalf("size %d, %d real: slot %d payload not zeroed", size, real, s)
				}
			}
			out, err := g.DecodeBucket(dst, nil)
			if err != nil || len(out.Blocks) != real {
				t.Fatalf("size %d, %d real: decoded %d blocks (%v)", size, real, len(out.Blocks), err)
			}
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	g := geo()
	ok := make([]byte, g.BucketSize())
	if err := g.EncodeBucket(make([]byte, 1), &Bucket{}); err == nil {
		t.Fatal("short dst accepted")
	}
	over := Bucket{Blocks: make([]Block, g.Z+1)}
	for i := range over.Blocks {
		over.Blocks[i].Data = make([]byte, g.PayloadSize)
	}
	if err := g.EncodeBucket(ok, &over); err == nil {
		t.Fatal("overfull bucket accepted")
	}
	bad := Bucket{Blocks: []Block{{Addr: 1, Data: make([]byte, 3)}}}
	if err := g.EncodeBucket(ok, &bad); err == nil {
		t.Fatal("wrong payload size accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	g := geo()
	if _, err := g.DecodeBucket(make([]byte, 5), nil); err == nil {
		t.Fatal("short src accepted")
	}
}

func TestEmptyBucketDecodesEmpty(t *testing.T) {
	g := geo()
	wire := make([]byte, g.BucketSize())
	if err := g.EncodeBucket(wire, &Bucket{}); err != nil {
		t.Fatal(err)
	}
	out, err := g.DecodeBucket(wire, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Blocks) != 0 {
		t.Fatalf("empty bucket decoded %d blocks", len(out.Blocks))
	}
}

func TestDummy(t *testing.T) {
	d := Dummy(64)
	if !d.IsDummy() {
		t.Fatal("Dummy() not dummy")
	}
	if len(d.Data) != 64 {
		t.Fatalf("dummy payload %d want 64", len(d.Data))
	}
	real := Block{Addr: 5}
	if real.IsDummy() {
		t.Fatal("real block reported dummy")
	}
}

// TestDecodeCopiesPayload pins who copies a decoded payload: not the
// decoder. Each block's Data is a view of its slot in the wire image,
// capped at the slot's end so an append through it cannot run into the
// next slot, and the decode fills the caller's block slice without
// allocating one. Holders that keep a payload (the stash) copy it.
func TestDecodeCopiesPayload(t *testing.T) {
	g := geo()
	b := Bucket{Blocks: []Block{
		{Addr: 4, Label: 1, Data: make([]byte, g.PayloadSize)},
		{Addr: 5, Label: 2, Data: make([]byte, g.PayloadSize)},
	}}
	wire := make([]byte, g.BucketSize())
	if err := g.EncodeBucket(wire, &b); err != nil {
		t.Fatal(err)
	}
	room := make([]Block, 0, g.Z)
	out, err := g.DecodeBucket(wire, room)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Blocks) != 2 || &out.Blocks[0] != &room[:1][0] {
		t.Fatal("decoded blocks do not fill the caller's slice")
	}
	stride := EncodedBlockSize(g.PayloadSize)
	for i, blk := range out.Blocks {
		off := i*stride + headerSize
		if &blk.Data[0] != &wire[off] {
			t.Fatalf("block %d payload is not a view of its wire slot", i)
		}
		if len(blk.Data) != g.PayloadSize || cap(blk.Data) != g.PayloadSize {
			t.Fatalf("block %d payload len %d cap %d, want both %d", i, len(blk.Data), cap(blk.Data), g.PayloadSize)
		}
	}
	wire[headerSize] = 0xEE // the view sees a later change to the image
	if out.Blocks[0].Data[0] != 0xEE {
		t.Fatal("decoded payload does not alias the wire buffer")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		out, _ = g.DecodeBucket(wire, room)
	}); allocs != 0 {
		t.Fatalf("decode into a slice with room for Z blocks allocated %.0f objects", allocs)
	}
}

func TestRoundTripProperty(t *testing.T) {
	g := Geometry{Z: 3, PayloadSize: 8}
	f := func(addrs [3]uint16, labels [3]uint8, payload [3][8]byte, n uint8) bool {
		k := int(n) % 4 // 0..3 blocks
		var in Bucket
		for i := 0; i < k; i++ {
			in.Blocks = append(in.Blocks, Block{
				Addr:  uint64(addrs[i]),
				Label: uint64(labels[i]),
				Data:  append([]byte(nil), payload[i][:]...),
			})
		}
		wire := make([]byte, g.BucketSize())
		if err := g.EncodeBucket(wire, &in); err != nil {
			return false
		}
		out, err := g.DecodeBucket(wire, nil)
		if err != nil || len(out.Blocks) != k {
			return false
		}
		for i := 0; i < k; i++ {
			if out.Blocks[i].Addr != in.Blocks[i].Addr ||
				out.Blocks[i].Label != in.Blocks[i].Label ||
				!bytes.Equal(out.Blocks[i].Data, in.Blocks[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEncodeBucket measures encoding one Z = 4 bucket of 1 KiB
// payloads holding 1 or 3 real blocks, the rest dummy padding.
func BenchmarkEncodeBucket(b *testing.B) {
	g := Geometry{Z: 4, PayloadSize: 1024}
	for _, real := range []int{1, 3} {
		b.Run(fmt.Sprintf("real=%d", real), func(b *testing.B) {
			var bk Bucket
			for i := 0; i < real; i++ {
				bk.Blocks = append(bk.Blocks, Block{Addr: uint64(i), Label: uint64(i), Data: make([]byte, g.PayloadSize)})
			}
			dst := make([]byte, g.BucketSize())
			b.SetBytes(int64(len(dst)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.EncodeBucket(dst, &bk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
