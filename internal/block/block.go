// Package block defines the data unit of the ORAM: fixed-size memory
// blocks tagged with their program address and current leaf label, and the
// Z-slot buckets that hold them in the tree. It also provides the
// plaintext wire encoding of buckets, which the encryption layer
// (internal/crypt) seals before anything reaches untrusted storage.
//
// Per the paper (§2.3), a bucket always contains exactly Z slots; slots
// not occupied by data blocks hold dummy blocks, and after probabilistic
// encryption dummy and real blocks are indistinguishable.
package block

import (
	"encoding/binary"
	"fmt"
)

// zeroPayload backs ZeroPayload: one fixed, never-mutated buffer shared by
// every dummy payload up to zeroPayloadSize bytes. It is deliberately not
// growable — a stable backing array is what lets holders detect aliasing
// (pathoram's copy-on-write) with a plain pointer comparison.
const zeroPayloadSize = 64 << 10

var zeroPayload [zeroPayloadSize]byte

// ZeroPayload returns an all-zero payload of the given size, shared and
// READ-ONLY: callers must never write through it. Dummy payloads are
// write-once-nothing by construction, so sharing one zero buffer removes a
// per-dummy allocation from every hot path that materializes dummies.
// Sizes beyond 64 KiB fall back to a private allocation.
func ZeroPayload(size int) []byte {
	if size <= zeroPayloadSize {
		return zeroPayload[:size:size]
	}
	return make([]byte, size)
}

// AliasesZero reports whether p points into the shared zero buffer, i.e.
// was produced by ZeroPayload (for sizes within the shared range). Holders
// that need to mutate such a payload must replace it with a private copy
// first.
func AliasesZero(p []byte) bool {
	return len(p) > 0 && &p[0] == &zeroPayload[0]
}

// DummyAddr is the reserved program address marking a dummy block. Real
// program addresses must be below DummyAddr.
const DummyAddr = ^uint64(0)

// headerSize is the per-block metadata: 8-byte address + 8-byte label.
const headerSize = 16

// Block is one ORAM block: payload plus the metadata stored alongside it
// both in the stash and in external memory (§2.3: "data blocks are stored
// together with their leaf labels and program addresses").
type Block struct {
	Addr  uint64 // program (block-aligned) address; DummyAddr for dummies
	Label uint64 // current leaf label the block is mapped to
	Data  []byte // payload of exactly the configured block size
}

// IsDummy reports whether the block is a dummy filler block.
func (b Block) IsDummy() bool { return b.Addr == DummyAddr }

// Dummy returns a dummy block with a zeroed payload of the given size.
// The payload is the shared ZeroPayload buffer: read-only by contract.
func Dummy(size int) Block {
	return Block{Addr: DummyAddr, Data: ZeroPayload(size)}
}

// NewDummyInto resets b in place to a dummy block with a shared zero
// payload of the given size, without allocating.
func NewDummyInto(b *Block, size int) {
	b.Addr = DummyAddr
	b.Label = 0
	b.Data = ZeroPayload(size)
}

// EncodedBlockSize returns the wire size of one block with the given
// payload size.
func EncodedBlockSize(payload int) int { return headerSize + payload }

// Bucket is the content of one tree node: up to Z real blocks. The
// in-memory representation stores only real blocks (dummies are implicit)
// to keep metadata-mode simulations compact; the wire encoding always pads
// to exactly Z slots so bucket ciphertexts are size-indistinguishable.
type Bucket struct {
	Blocks []Block
}

// Geometry fixes the shape of buckets for encoding: Z slots of the given
// payload size.
type Geometry struct {
	Z           int // slots per bucket
	PayloadSize int // bytes per block payload
}

// Validate checks the geometry for usability.
func (g Geometry) Validate() error {
	if g.Z <= 0 {
		return fmt.Errorf("block: Z must be positive, got %d", g.Z)
	}
	if g.PayloadSize <= 0 {
		return fmt.Errorf("block: payload size must be positive, got %d", g.PayloadSize)
	}
	return nil
}

// BucketSize returns the wire size of a full bucket.
func (g Geometry) BucketSize() int { return g.Z * EncodedBlockSize(g.PayloadSize) }

// EncodeBucket serializes b into dst, padding with dummy slots up to Z.
// dst must have length g.BucketSize(). It returns an error if the bucket
// overflows Z slots or a payload has the wrong size.
func (g Geometry) EncodeBucket(dst []byte, b *Bucket) error {
	if len(dst) != g.BucketSize() {
		return fmt.Errorf("block: dst size %d, want %d", len(dst), g.BucketSize())
	}
	if len(b.Blocks) > g.Z {
		return fmt.Errorf("block: bucket holds %d blocks, max Z=%d", len(b.Blocks), g.Z)
	}
	off := 0
	stride := EncodedBlockSize(g.PayloadSize)
	for _, blk := range b.Blocks {
		if len(blk.Data) != g.PayloadSize {
			return fmt.Errorf("block: payload size %d, want %d", len(blk.Data), g.PayloadSize)
		}
		binary.LittleEndian.PutUint64(dst[off:], blk.Addr)
		binary.LittleEndian.PutUint64(dst[off+8:], blk.Label)
		copy(dst[off+headerSize:], blk.Data)
		off += stride
	}
	// Pad remaining slots with dummies. Zero the payload so ciphertext
	// length and structure never depend on previous contents; clear
	// compiles to memclr, where a byte loop over an index range does not.
	for s := len(b.Blocks); s < g.Z; s++ {
		binary.LittleEndian.PutUint64(dst[off:], DummyAddr)
		binary.LittleEndian.PutUint64(dst[off+8:], 0)
		clear(dst[off+headerSize : off+stride])
		off += stride
	}
	return nil
}

// DecodeBucket parses a bucket wire image, returning only the real blocks.
// src must have length g.BucketSize(). The blocks are appended to
// blocks[:0], so a caller that passes room for Z blocks decodes without
// allocating. Payloads are not copied: each block's Data is a view of its
// slot in src, capped at the slot's end, so the bucket is valid only while
// src is, and a holder that keeps a payload must copy it.
func (g Geometry) DecodeBucket(src []byte, blocks []Block) (Bucket, error) {
	if len(src) != g.BucketSize() {
		return Bucket{}, fmt.Errorf("block: src size %d, want %d", len(src), g.BucketSize())
	}
	b := Bucket{Blocks: blocks[:0]}
	stride := EncodedBlockSize(g.PayloadSize)
	for s := 0; s < g.Z; s++ {
		off := s * stride
		addr := binary.LittleEndian.Uint64(src[off:])
		if addr == DummyAddr {
			continue
		}
		b.Blocks = append(b.Blocks, Block{
			Addr:  addr,
			Label: binary.LittleEndian.Uint64(src[off+8:]),
			Data:  src[off+headerSize : off+stride : off+stride],
		})
	}
	return b, nil
}
