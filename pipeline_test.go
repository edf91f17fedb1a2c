package forkoram

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"forkoram/internal/block"
	"forkoram/internal/rng"
	"forkoram/internal/tree"
)

// obsTrace records the adversary-visible access sequence reported by a
// device's Observer: labels, dummy flags, and full bucket sequences.
type obsTrace struct {
	labels []uint64
	dummy  []bool
	reads  [][]uint64
	writes [][]uint64
}

func (o *obsTrace) hook() func(label uint64, dummy bool, r, w []uint64) {
	return func(label uint64, dummy bool, r, w []uint64) {
		o.labels = append(o.labels, label)
		o.dummy = append(o.dummy, dummy)
		o.reads = append(o.reads, append([]uint64(nil), r...))
		o.writes = append(o.writes, append([]uint64(nil), w...))
	}
}

func (o *obsTrace) equal(p *obsTrace) error {
	if len(o.labels) != len(p.labels) {
		return fmt.Errorf("access counts diverged: %d vs %d", len(o.labels), len(p.labels))
	}
	for i := range o.labels {
		if o.labels[i] != p.labels[i] || o.dummy[i] != p.dummy[i] {
			return fmt.Errorf("access %d header diverged: (%d,%v) vs (%d,%v)",
				i, o.labels[i], o.dummy[i], p.labels[i], p.dummy[i])
		}
		if len(o.reads[i]) != len(p.reads[i]) || len(o.writes[i]) != len(p.writes[i]) {
			return fmt.Errorf("access %d bucket counts diverged", i)
		}
		for j := range o.reads[i] {
			if o.reads[i][j] != p.reads[i][j] {
				return fmt.Errorf("access %d read bucket %d diverged", i, j)
			}
		}
		for j := range o.writes[i] {
			if o.writes[i][j] != p.writes[i][j] {
				return fmt.Errorf("access %d write bucket %d diverged", i, j)
			}
		}
	}
	return nil
}

// pipelineBatches builds a deterministic mixed read/write batch workload.
func pipelineBatches(blocks uint64, blockSize int) [][]BatchOp {
	src := rng.New(4242)
	var out [][]BatchOp
	for b := 0; b < 12; b++ {
		n := 4 + int(src.Uint64n(13))
		ops := make([]BatchOp, 0, n)
		for i := 0; i < n; i++ {
			addr := src.Uint64n(blocks)
			if src.Uint64n(100) < 55 {
				data := bytes.Repeat([]byte{byte(b*31 + i)}, blockSize)
				ops = append(ops, BatchOp{Addr: addr, Write: true, Data: data})
			} else {
				ops = append(ops, BatchOp{Addr: addr})
			}
		}
		out = append(out, ops)
	}
	return out
}

// TestPipelineDepthTraceEquivalence is the pipeline's security and
// correctness pin: a Fork device at PipelineDepth 2, 3, 4 and 8 — one
// session per Batch, whose last access runs serially and is held into
// the next Batch — must produce the exact public access sequence of the
// serial device (depth 1), identical batch results, identical
// bucket-traffic counters, an identical post-run Snapshot, and a
// logically identical medium. The pipeline may only move work in time.
func TestPipelineDepthTraceEquivalence(t *testing.T) {
	const blocks, blockSize = 96, 48
	run := func(depth int) (*obsTrace, [][][]byte, *Device, []byte) {
		tr := &obsTrace{}
		d, err := NewDevice(DeviceConfig{
			Blocks: blocks, BlockSize: blockSize, Variant: Fork,
			Seed: 9, QueueSize: 8, PipelineDepth: depth,
			Observer: tr.hook(),
		})
		if err != nil {
			t.Fatal(err)
		}
		var results [][][]byte
		for _, ops := range pipelineBatches(blocks, blockSize) {
			out, err := d.Batch(ops)
			if err != nil {
				t.Fatalf("depth %d: batch: %v", depth, err)
			}
			results = append(results, out)
		}
		snap, err := d.Snapshot()
		if err != nil {
			t.Fatalf("depth %d: snapshot: %v", depth, err)
		}
		raw, err := snap.MarshalBinary()
		if err != nil {
			t.Fatalf("depth %d: marshal: %v", depth, err)
		}
		return tr, results, d, raw
	}

	refTrace, refOut, refDev, refSnap := run(1)
	rs := refDev.Stats()
	if rs.Pipeline.Windows != 0 {
		t.Fatalf("depth 1 engaged the pipeline: %+v", rs.Pipeline)
	}

	for _, depth := range []int{2, 3, 4, 8} {
		pipTrace, pipOut, pipDev, pipSnap := run(depth)
		id := fmt.Sprintf("depth %d", depth)
		if err := refTrace.equal(pipTrace); err != nil {
			t.Fatalf("%s: public access sequence diverged: %v", id, err)
		}
		for b := range refOut {
			for i := range refOut[b] {
				if !bytes.Equal(refOut[b][i], pipOut[b][i]) {
					t.Fatalf("%s: batch %d result %d diverged", id, b, i)
				}
			}
		}

		ps := pipDev.Stats()
		if rs.BucketReads != ps.BucketReads || rs.BucketWrites != ps.BucketWrites {
			t.Fatalf("%s: bucket traffic diverged: reads %d vs %d, writes %d vs %d",
				id, rs.BucketReads, ps.BucketReads, rs.BucketWrites, ps.BucketWrites)
		}
		if ps.Pipeline.Windows == 0 || ps.Pipeline.Prefetches == 0 || ps.Pipeline.Writebacks == 0 {
			t.Fatalf("%s: never engaged the pipeline: %+v", id, ps.Pipeline)
		}

		// Post-run client state (position map, stash, config)
		// byte-identical. PipelineDepth is process-local tuning, so the
		// snapshot of a pipelined device must equal the serial one.
		if !bytes.Equal(refSnap, pipSnap) {
			t.Fatalf("%s: post-run snapshots diverged", id)
		}
		// Post-run medium logically identical: same blocks in every bucket
		// (ciphertexts differ by nonce, contents must not).
		for n := tree.Node(0); n < tree.Node(refDev.tr.Nodes()); n++ {
			rb, err := refDev.store.ReadBucket(n)
			if err != nil {
				t.Fatal(err)
			}
			want := append([]block.Block(nil), rb.Blocks...)
			for i := range want {
				want[i].Data = append([]byte(nil), want[i].Data...)
			}
			pb, err := pipDev.store.ReadBucket(n)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(pb.Blocks) {
				t.Fatalf("%s: bucket %d occupancy diverged: %d vs %d", id, n, len(want), len(pb.Blocks))
			}
			for i := range want {
				if want[i].Addr != pb.Blocks[i].Addr || want[i].Label != pb.Blocks[i].Label ||
					!bytes.Equal(want[i].Data, pb.Blocks[i].Data) {
					t.Fatalf("%s: bucket %d block %d diverged", id, n, i)
				}
			}
		}
	}
}

// TestPipelineServiceStress hammers a pipelined single-shard Service
// with concurrent clients — singleton writes, reads, and batches racing
// into group-commit windows — then verifies every acknowledged write
// against an oracle. Run under -race this is the pipeline's concurrency
// stress test at its shallowest depth (two accesses in flight, one
// refill queued): admission and each window's session teardown racing
// the stage workers.
func TestPipelineServiceStress(t *testing.T) { runPipelineServiceStress(t, 2) }

// TestConcurrentServeServiceStress is the same oracle stress with a
// deeper window: four-way worker-pool execution racing admission,
// multi-slot prefetch, dependency parking, and overlapped writebacks.
func TestConcurrentServeServiceStress(t *testing.T) { runPipelineServiceStress(t, 4) }

func runPipelineServiceStress(t *testing.T, depth int) {
	const (
		blocks    = 64
		blockSize = 32
		clients   = 6
		opsEach   = 30
	)
	svc, err := NewService(ServiceConfig{
		Device: DeviceConfig{
			Blocks: blocks, BlockSize: blockSize, Variant: Fork,
			Seed: 11, QueueSize: 8, PipelineDepth: depth,
		},
		QueueDepth:      32,
		CheckpointEvery: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx := context.Background()
	// Each client owns a disjoint address range, so per-address program
	// order is per-client and the oracle needs no cross-client ordering.
	oracles := make([]map[uint64][]byte, clients)
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			oracle := make(map[uint64][]byte)
			oracles[c] = oracle
			lo := uint64(c) * blocks / clients
			hi := uint64(c+1) * blocks / clients
			src := rng.New(uint64(1000 + c))
			for op := 0; op < opsEach; op++ {
				switch src.Uint64n(3) {
				case 0:
					addr := lo + src.Uint64n(hi-lo)
					data := bytes.Repeat([]byte{byte(c*50 + op)}, blockSize)
					if err := svc.Write(ctx, addr, data); err != nil {
						errCh <- fmt.Errorf("client %d write: %w", c, err)
						return
					}
					oracle[addr] = data
				case 1:
					addr := lo + src.Uint64n(hi-lo)
					got, err := svc.Read(ctx, addr)
					if err != nil {
						errCh <- fmt.Errorf("client %d read: %w", c, err)
						return
					}
					if want, ok := oracle[addr]; ok && !bytes.Equal(got, want) {
						errCh <- fmt.Errorf("client %d: addr %d read back wrong data", c, addr)
						return
					}
				default:
					n := 2 + int(src.Uint64n(4))
					ops := make([]BatchOp, 0, n)
					for i := 0; i < n; i++ {
						addr := lo + src.Uint64n(hi-lo)
						data := bytes.Repeat([]byte{byte(c*50 + op + i)}, blockSize)
						ops = append(ops, BatchOp{Addr: addr, Write: true, Data: data})
					}
					if _, err := svc.Batch(ctx, ops); err != nil {
						errCh <- fmt.Errorf("client %d batch: %w", c, err)
						return
					}
					for _, o := range ops {
						oracle[o.Addr] = o.Data // last write in ops order wins per address
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Final read-your-writes sweep over every oracle.
	for c, oracle := range oracles {
		for addr, want := range oracle {
			got, err := svc.Read(ctx, addr)
			if err != nil {
				t.Fatalf("final read %d: %v", addr, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("client %d: addr %d lost its last acknowledged write", c, addr)
			}
		}
	}
	st := svc.Stats()
	if st.Pipeline.Windows == 0 {
		t.Fatalf("concurrent load never engaged the pipeline: %+v", st.Pipeline)
	}
}

// TestPipelineStallAccounting pins the pipelined stage's stall
// bookkeeping: sampled between batches, every PipelineStats counter
// must be monotone non-decreasing, every wait-count/wait-time pair must
// agree (time without a count, or a count whose time can only be zero
// if the clock never advanced, means an accounting path was missed),
// and the volume counters must sum consistently with the work actually
// submitted (one window per pipelined batch, at least one bucket per
// prefetch, no more writebacks than accesses).
func TestPipelineStallAccounting(t *testing.T) {
	const blocks, blockSize = 96, 48
	d, err := NewDevice(DeviceConfig{
		Blocks: blocks, BlockSize: blockSize, Variant: Fork,
		Seed: 21, QueueSize: 8, PipelineDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	batches := pipelineBatches(blocks, blockSize)
	accesses := 0
	prev := d.Stats().Pipeline
	for b, ops := range batches {
		if _, err := d.Batch(ops); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		accesses += len(ops) // real accesses; dummies only add more
		cur := d.Stats().Pipeline
		for _, c := range [][2]uint64{
			{prev.Windows, cur.Windows},
			{prev.Prefetches, cur.Prefetches},
			{prev.PrefetchedBuckets, cur.PrefetchedBuckets},
			{prev.Writebacks, cur.Writebacks},
			{prev.FetchWaits, cur.FetchWaits},
			{prev.FetchWaitNs, cur.FetchWaitNs},
			{prev.EvictWaits, cur.EvictWaits},
			{prev.EvictWaitNs, cur.EvictWaitNs},
			{prev.WritebackWaits, cur.WritebackWaits},
			{prev.WritebackWaitNs, cur.WritebackWaitNs},
			{prev.ServeWaits, cur.ServeWaits},
			{prev.ServeWaitNs, cur.ServeWaitNs},
			{prev.DepWaits, cur.DepWaits},
			{prev.DepWaitNs, cur.DepWaitNs},
			{prev.WindowTurnarounds, cur.WindowTurnarounds},
			{prev.WindowTurnaroundNs, cur.WindowTurnaroundNs},
		} {
			if c[1] < c[0] {
				t.Fatalf("batch %d: counter regressed: %d -> %d\nprev %+v\ncur %+v", b, c[0], c[1], prev, cur)
			}
		}
		prev = cur
	}
	st := prev
	if st.Windows != uint64(len(batches)) {
		t.Fatalf("windows %d, want one per batch (%d)", st.Windows, len(batches))
	}
	if st.Prefetches == 0 || st.PrefetchedBuckets < st.Prefetches {
		t.Fatalf("prefetch volume inconsistent: %d fetches, %d buckets", st.Prefetches, st.PrefetchedBuckets)
	}
	if st.Writebacks == 0 {
		t.Fatal("no writebacks counted")
	}
	// Per-access bounds: each access issues at most one fetch and one
	// refill, and dep parks happen at most once per access.
	ceil := uint64(accesses) * 4 // dummy slack: schedule may add dummies
	for name, v := range map[string]uint64{
		"prefetches": st.Prefetches, "writebacks": st.Writebacks, "dep waits": st.DepWaits,
	} {
		if v > ceil {
			t.Fatalf("%s %d exceeds per-access ceiling %d", name, v, ceil)
		}
	}
	// Wait-count/wait-time pairing: time recorded without a count means
	// a stall was timed but not counted.
	for name, p := range map[string][2]uint64{
		"fetch":      {st.FetchWaits, st.FetchWaitNs},
		"evict":      {st.EvictWaits, st.EvictWaitNs},
		"writeback":  {st.WritebackWaits, st.WritebackWaitNs},
		"serve":      {st.ServeWaits, st.ServeWaitNs},
		"dep":        {st.DepWaits, st.DepWaitNs},
		"turnaround": {st.WindowTurnarounds, st.WindowTurnaroundNs},
	} {
		if p[0] == 0 && p[1] != 0 {
			t.Fatalf("%s: %dns of wait recorded with zero waits", name, p[1])
		}
	}
	// Window-turnaround accounting: every seam (retirement of window W
	// to first fetch of W+1) is one turnaround, and the first window has
	// no seam behind it.
	if want := st.Windows - 1; st.WindowTurnarounds != want {
		t.Fatalf("window turnarounds %d, want one per seam (%d)", st.WindowTurnarounds, want)
	}
}

// TestKilledServiceClosesSession: a crash-injected death right after a
// pipelined window must leave no stage goroutine behind, so Close on
// the dead incarnation returns with no stage left to write into a
// medium its successor restores. Device.Batch closes its session before
// it returns, including on the kill path.
func TestKilledServiceClosesSession(t *testing.T) {
	cfg := testServiceConfig(Fork)
	cfg.Device.PipelineDepth = 4
	var armed atomic.Bool
	cfg.crashHook = func(p CrashPoint) bool { return p == CrashAfterApply && armed.Load() }
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	ops := []BatchOp{
		{Addr: 1, Write: true, Data: chaosPayload(32, 5, 1)},
		{Addr: 2, Write: true, Data: chaosPayload(32, 5, 2)},
		{Addr: 3},
	}
	if _, err := svc.Batch(context.Background(), ops); !errors.Is(err, errKilled) {
		t.Fatalf("batch error %v, want the injected kill", err)
	}
	svc.Close()
	if svc.dev.ctl.PipelineStats().Windows == 0 {
		t.Fatal("the killed window never pipelined")
	}
	if svc.dev.sessionOpen {
		t.Fatal("dead incarnation left its pipelined session open")
	}
}
