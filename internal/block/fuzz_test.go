package block

import (
	"bytes"
	"testing"
)

// FuzzDecodeBucket checks that arbitrary bucket images either decode
// cleanly or error — never panic — and that decode(encode(x)) == x for
// whatever decodes.
func FuzzDecodeBucket(f *testing.F) {
	g := Geometry{Z: 4, PayloadSize: 16}
	seed := make([]byte, g.BucketSize())
	f.Add(seed)
	full := Bucket{Blocks: []Block{{Addr: 1, Label: 2, Data: make([]byte, 16)}}}
	wire := make([]byte, g.BucketSize())
	_ = g.EncodeBucket(wire, &full)
	f.Add(wire)
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := g.DecodeBucket(data, nil)
		if err != nil {
			return // wrong size; fine
		}
		// Re-encode and re-decode: metadata must round-trip exactly.
		out := make([]byte, g.BucketSize())
		if err := g.EncodeBucket(out, &b); err != nil {
			t.Fatalf("decoded bucket failed to re-encode: %v", err)
		}
		b2, err := g.DecodeBucket(out, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(b2.Blocks) != len(b.Blocks) {
			t.Fatalf("block count changed: %d -> %d", len(b.Blocks), len(b2.Blocks))
		}
		for i := range b.Blocks {
			if b.Blocks[i].Addr != b2.Blocks[i].Addr || b.Blocks[i].Label != b2.Blocks[i].Label ||
				!bytes.Equal(b.Blocks[i].Data, b2.Blocks[i].Data) {
				t.Fatalf("block %d changed across round trip", i)
			}
		}
	})
}
