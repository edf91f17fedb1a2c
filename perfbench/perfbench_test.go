package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"forkoram"
	"forkoram/internal/storage"
)

// streamBytes serializes the first n calls of every client's op stream.
func streamBytes(w *workload, seed uint64, n int) []byte {
	var out []byte
	for c := 0; c < clients; c++ {
		g := newOpGen(w, seed, c)
		var cl call
		for i := 0; i < n; i++ {
			g.next(&cl)
			out = appendCall(out, &cl)
		}
		for _, p := range prefill(w, seed, c, g.addrs) {
			out = append(out, p...)
		}
	}
	return out
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := streamBytes(w, 7, 2000), streamBytes(w, 7, 2000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different op streams", w.name)
		}
		if bytes.Equal(a, streamBytes(w, 8, 2000)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", w.name)
		}
	}
}

func TestClientsOwnDisjointAddressesOnEveryShard(t *testing.T) {
	w, err := findWorkload("disk-zipf")
	if err != nil {
		t.Fatal(err)
	}
	policy := forkoram.RoutingPolicy{Version: 1, Shards: w.shards}
	seen := map[uint64]bool{}
	for c := 0; c < clients; c++ {
		perShard := make([]int, w.shards)
		for _, a := range ownedAddrs(w, 3, c) {
			if seen[a] {
				t.Fatalf("address %d owned twice", a)
			}
			seen[a] = true
			perShard[policy.ShardOf(a)]++
		}
		if slices.Contains(perShard, 0) {
			t.Errorf("client %d owns no address on some shard: %v", c, perShard)
		}
	}
	if uint64(len(seen)) != w.blocks {
		t.Errorf("clients own %d of %d addresses", len(seen), w.blocks)
	}
}

// deviceRun drives a bare Fork device over med with the workload's op
// stream and returns its Observer trace, every result, its snapshot
// bytes and its stats. atStats runs right after the stats are taken,
// before the snapshot.
func deviceRun(t *testing.T, w *workload, med storage.Medium, observe func(uint64, bool, []uint64, []uint64),
	calls int, atStats func()) (trace, results, snap []byte, st forkoram.DeviceStats) {
	t.Helper()
	cfg := forkoram.DeviceConfig{Blocks: w.blocks, BlockSize: w.blockSize, Variant: forkoram.Fork, Seed: 11}
	cfg.Storage.Medium = med
	cfg.Observer = func(label uint64, dummy bool, reads, writes []uint64) {
		trace = binary.LittleEndian.AppendUint64(trace, label)
		trace = append(trace, fmt.Sprint(dummy, reads, writes)...)
		observe(label, dummy, reads, writes)
	}
	d, err := forkoram.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := newOpGen(w, 5, 0)
	var cl call
	for i := 0; i < calls; i++ {
		g.next(&cl)
		var got [][]byte
		switch {
		case len(cl.addrs) > 1:
			ops := make([]forkoram.BatchOp, len(cl.addrs))
			for j, a := range cl.addrs {
				ops[j] = forkoram.BatchOp{Addr: a, Write: cl.write}
				if cl.write {
					ops[j].Data = cl.data[j]
				}
			}
			got, err = d.Batch(ops)
		case cl.write:
			err = d.Write(cl.addrs[0], cl.data[0])
		default:
			var v []byte
			v, err = d.Read(cl.addrs[0])
			got = [][]byte{v}
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range got {
			results = append(results, v...)
		}
	}
	st = d.Stats()
	atStats()
	s, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap, err = s.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	return trace, results, snap, st
}

// TestWrappedMediumIsFaithful checks that timing the medium from outside
// changes nothing the device does, and that the counts taken outside
// equal the device's own.
func TestWrappedMediumIsFaithful(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := forkoram.DeviceConfig{Blocks: w.blocks / uint64(max(w.shards, 1)), BlockSize: w.blockSize}
			sw := *w
			sw.blocks = cfg.Blocks
			open := func(name string) storage.Medium {
				if w.disk {
					d, err := forkoram.NewDiskMedium(cfg, filepath.Join(t.TempDir(), name))
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { d.Close() })
					return d
				}
				m, err := newMemMedium(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			calls := 400
			nop := func(uint64, bool, []uint64, []uint64) {}
			bareTrace, bareRes, bareSnap, bareSt := deviceRun(t, &sw, open("bare"), nop, calls, func() {})
			sh := newShardLayers(0, newTracer(), forkoram.NewWALMemStore(), open("wrapped"), forkoram.NewMemCheckpointStore())
			sh.tr.on.Store(true) // spans on too: the timed path must be as faithful
			var n counts
			var noRead uint64 // traversals that read no bucket (label repeats the previous one)
			observe := func(label uint64, dummy bool, reads, writes []uint64) {
				sh.observe(label, dummy, reads, writes)
				if len(reads) == 0 {
					noRead++
				}
			}
			trace, res, snap, st := deviceRun(t, &sw, sh.medium, observe, calls, func() { n = sh.counts() })
			if !bytes.Equal(trace, bareTrace) {
				t.Error("Observer traces differ")
			}
			if !bytes.Equal(res, bareRes) {
				t.Error("results differ")
			}
			if !bytes.Equal(snap, bareSnap) {
				t.Error("snapshot bytes differ")
			}
			if st.BucketReads != bareSt.BucketReads || st.RealAccesses != bareSt.RealAccesses {
				t.Errorf("stats differ: wrapped %+v, bare %+v", st, bareSt)
			}
			if got, want := n[cTraversals], st.RealAccesses+st.DummyAccesses; got != want {
				t.Errorf("traversals counted outside = %d, device accesses = %d", got, want)
			}
			if got, want := n[cDummies], st.DummyAccesses; got != want {
				t.Errorf("dummies counted outside = %d, device = %d", got, want)
			}
			if got, want := n[cPathReads], n[cTraversals]-noRead; got != want || got == 0 {
				t.Errorf("bulk path reads = %d, want one per traversal that reads a bucket (%d)", got, want)
			}
			if got, want := n[cBucketReads], st.BucketReads; got != want {
				t.Errorf("bucket reads counted outside = %d, device = %d", got, want)
			}
			// The snapshot's compaction walk reads through the wrapper too.
			if got, want := sh.counts()[cBucketReads], sh.medium.Counters().BucketReads; got != want {
				t.Errorf("after the snapshot: bucket reads counted outside = %d, medium = %d", got, want)
			}
		})
	}
}

func TestIntervalMath(t *testing.T) {
	spans := []span{{start: 10, dur: 10}, {start: 0, dur: 5}, {start: 15, dur: 10}, {start: 40, dur: 5}}
	u := union(spans)
	want := []interval{{0, 5}, {10, 25}, {40, 45}}
	if !slices.Equal(u, want) {
		t.Fatalf("union = %v, want %v", u, want)
	}
	if got := totalLen(u); got != 25 {
		t.Errorf("totalLen = %d, want 25", got)
	}
	if got := overlapLen(u, []interval{{3, 12}, {44, 50}}); got != 2+2+1 {
		t.Errorf("overlapLen = %d, want 5", got)
	}
}

var endToEndNames = []string{"setup_s", "ops_per_s", "read_p50_us", "write_p50_us", "write_amp", "heap_live_mb"}

var perLayerNames = []string{
	"wal.syncs_per_write", "wal.sync_p50_us", "wal.sync_p99_us", "wal.sync_busy_frac", "wal.bytes_per_write",
	"storage.buckets_read_per_op", "storage.buckets_written_per_op", "storage.read_us_per_bucket",
	"storage.write_us_per_bucket", "storage.busy_frac", "fork.accesses_per_op", "fork.dummy_frac", "fork.buckets_per_access",
	"ckpt.count", "ckpt.save_ms", "ckpt.clone_ms", "ckpt.bytes", "service.window_ops", "service.recoveries",
	"service.untimed_frac", "shardedservice.shard_skew", "pathoram.stall_ms", "pathoram.seam_us",
}

// TestShortRunsReportEveryMetric runs every workload briefly, traced and
// untraced: the oracle must find nothing, no call may fail, and every
// metric must be reported.
func TestShortRunsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			res, err := measure(w, 9, 600*time.Millisecond, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			names := endToEndNames
			if traced {
				names = perLayerNames
			}
			for _, n := range names {
				if _, ok := res.Metrics[n]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, n)
				}
			}
			if !traced && res.Metrics["ops_per_s"].Value <= 0 {
				t.Errorf("%s: no throughput", w.name)
			}
		}
	}
}
