package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// clients is the number of closed-loop clients: each waits for its
// reply before sending the next call, as callers of a block store do.
const clients = 2

// noCheckpoints is a CheckpointEvery large enough that no automatic
// checkpoint runs during a timed phase.
const noCheckpoints = 1 << 30

// workload is one traffic mix. It fixes only what a deployment chooses
// (geometry, medium, journal, checkpoint cadence); every tuning knob of
// the service stays at its default.
type workload struct {
	name      string
	blocks    uint64
	blockSize int
	shards    int     // 0: one Service; >0: a ShardedService of that width
	disk      bool    // a durable disk medium per shard instead of the in-memory one
	batch     int     // ops per Batch call (alternately all reads, all writes); 0 issues single Read/Write calls
	readFrac  float64 // share of single-op calls that are reads
	zipf      float64 // Zipf exponent of key popularity; 0 is uniform
	ckptEvery int     // ServiceConfig.CheckpointEvery; 0 keeps the default
}

var workloads = []workload{
	{
		// Full dispatch windows: path merging, scheduling and bucket
		// crypto dominate.
		name:      "batch-1k",
		blocks:    4096,
		blockSize: 1024,
		batch:     32,
		ckptEvery: noCheckpoints,
	},
	{
		// Single ops through the router onto disk media, skewed keys and
		// default checkpoints: the journal fsync, disk frames, shard skew
		// and checkpoint stalls dominate.
		name:      "disk-zipf",
		blocks:    16384,
		blockSize: 256,
		shards:    2,
		disk:      true,
		readFrac:  0.7,
		zipf:      0.99,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// digest identifies the configuration a result was measured under:
// every workload field that shapes the run plus the client count.
func (w *workload) digest() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v clients=%d", *w, clients)))
	return hex.EncodeToString(sum[:8])
}

// call is one client call: a single Read or Write, or a Batch whose ops
// are all reads or all writes.
type call struct {
	write bool
	addrs []uint64
	data  [][]byte // payloads of a write call, parallel to addrs
	bufs  [][]byte // backing for data, reused call to call
}

// opGen is one client's op stream. It is a pure function of the
// workload, the seed and the client index: the service under test only
// ever sees the calls it yields.
type opGen struct {
	w     *workload
	rng   *rand.Rand
	addrs []uint64  // the addresses this client owns
	idx   []int     // partial-shuffle state for distinct batch addresses
	cdf   []float64 // cumulative Zipf weights over addrs; nil for uniform keys
	n     uint64
}

// ownedAddrs deals a seeded permutation of the address space out to the
// clients, so each owns a disjoint set spread over every shard and every
// read has one exact expected value.
func ownedAddrs(w *workload, seed uint64, client int) []uint64 {
	perm := rand.New(rand.NewPCG(seed, 0x6f776e)).Perm(int(w.blocks))
	out := make([]uint64, 0, len(perm)/clients+1)
	for i := client; i < len(perm); i += clients {
		out = append(out, uint64(perm[i]))
	}
	return out
}

func newOpGen(w *workload, seed uint64, client int) *opGen {
	g := &opGen{
		w:     w,
		rng:   rand.New(rand.NewPCG(seed, uint64(client)+1)),
		addrs: ownedAddrs(w, seed, client),
	}
	g.idx = make([]int, len(g.addrs))
	for i := range g.idx {
		g.idx[i] = i
	}
	if w.zipf > 0 {
		g.cdf = make([]float64, len(g.addrs))
		total := 0.0
		for k := range g.cdf {
			total += 1 / math.Pow(float64(k+1), w.zipf)
			g.cdf[k] = total
		}
		for k := range g.cdf {
			g.cdf[k] /= total
		}
	}
	return g
}

// pick draws the index of one owned address.
func (g *opGen) pick() int {
	if g.cdf == nil {
		return g.rng.IntN(len(g.addrs))
	}
	i := sort.SearchFloat64s(g.cdf, g.rng.Float64())
	return min(i, len(g.addrs)-1)
}

// next fills c with the next call of the stream.
func (g *opGen) next(c *call) {
	g.n++
	c.addrs = c.addrs[:0]
	if g.w.batch > 0 {
		c.write = g.n%2 == 0
		for i := 0; i < g.w.batch; i++ {
			j := i + g.rng.IntN(len(g.idx)-i)
			g.idx[i], g.idx[j] = g.idx[j], g.idx[i]
			c.addrs = append(c.addrs, g.addrs[g.idx[i]])
		}
	} else {
		c.write = g.rng.Float64() >= g.w.readFrac
		c.addrs = append(c.addrs, g.addrs[g.pick()])
	}
	c.data = c.data[:0]
	if !c.write {
		return
	}
	for len(c.bufs) < len(c.addrs) {
		c.bufs = append(c.bufs, make([]byte, g.w.blockSize))
	}
	for i := range c.addrs {
		fillPayload(g.rng, c.bufs[i])
		c.data = append(c.data, c.bufs[i])
	}
}

// prefill returns the initial payload of every owned address, drawn from
// a stream of its own so the op stream does not depend on it.
func prefill(w *workload, seed uint64, client int, addrs []uint64) [][]byte {
	rng := rand.New(rand.NewPCG(seed, 0x1000+uint64(client)))
	out := make([][]byte, len(addrs))
	for i := range out {
		out[i] = make([]byte, w.blockSize)
		fillPayload(rng, out[i])
	}
	return out
}

// fillPayload fills b (a multiple of 8 bytes long) with random bytes.
func fillPayload(rng *rand.Rand, b []byte) {
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], rng.Uint64())
	}
}

// appendCall serializes c: the byte form the determinism test compares.
func appendCall(dst []byte, c *call) []byte {
	if c.write {
		dst = append(dst, 'W')
	} else {
		dst = append(dst, 'R')
	}
	for i, a := range c.addrs {
		dst = binary.LittleEndian.AppendUint64(dst, a)
		if c.write {
			dst = append(dst, c.data[i]...)
		}
	}
	return dst
}
