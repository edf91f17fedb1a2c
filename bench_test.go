package forkoram

// One testing.B benchmark per table and figure of the paper's evaluation
// (§5). Each benchmark regenerates its experiment through the harness at
// a reduced scale and reports the headline series values as custom
// metrics, so `go test -bench .` doubles as a quick reproduction run.
// cmd/orambench produces the full tables (and -paper the Table 1 scale).

import (
	"context"
	"path/filepath"
	"testing"

	"forkoram/internal/bench"
	"forkoram/internal/rng"
	"forkoram/internal/sim"
	"forkoram/internal/workload"
)

// benchOpts keeps benchmark iterations affordable.
func benchOpts() bench.Options {
	return bench.Options{DataBlocks: 1 << 18, RequestsPerCore: 1000, Mixes: 2, Seed: 1}
}

// BenchmarkTable1Config exercises the Table 1 default configuration
// end-to-end once per iteration (ForkPath scheme, reduced request count).
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := sim.Default(sim.ForkPath)
		cfg.DataBlocks = 1 << 18
		cfg.OnChipEntries = 1 << 10
		cfg.RequestsPerCore = 1000
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AvgPathBuckets, "pathlen")
	}
}

// BenchmarkTable2Mixes runs every Table 2 mix once (traditional scheme).
func BenchmarkTable2Mixes(b *testing.B) {
	o := benchOpts()
	o.RequestsPerCore = 300
	for i := 0; i < b.N; i++ {
		for _, mix := range workload.Mixes() {
			cfg := sim.Default(sim.Traditional)
			cfg.DataBlocks = o.DataBlocks
			cfg.OnChipEntries = 1 << 10
			cfg.RequestsPerCore = o.RequestsPerCore
			cfg.Workloads = mix.Members[:]
			if _, err := sim.Run(cfg); err != nil {
				b.Fatalf("%s: %v", mix.Name, err)
			}
		}
	}
}

func BenchmarkFig10PathLength(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res, _, err := bench.Fig10(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.QueueSize == 64 {
				b.ReportMetric(r.AvgPathBuckets, "pathlen@Q64")
				b.ReportMetric(r.NormDRAMLat, "dramlat@Q64")
			}
		}
	}
}

func BenchmarkFig11RequestCount(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res, _, err := bench.Fig11(o)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range res {
			sum += r.Norm[128]
		}
		b.ReportMetric(sum/float64(len(res)), "reqs@Q128")
	}
}

func BenchmarkFig12ORAMLatency(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res, _, err := bench.Fig12(o)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range res {
			sum += r.Norm[64]
		}
		b.ReportMetric(sum/float64(len(res)), "latency@Q64")
	}
}

func BenchmarkFig13Caching(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res, _, err := bench.Fig13(o)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range res {
			sum += r.Norm["merge+1M MAC"]
		}
		b.ReportMetric(sum/float64(len(res)), "latency@1M-MAC")
	}
}

func BenchmarkFig14Slowdown(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res, _, err := bench.Fig14(o)
		if err != nil {
			b.Fatal(err)
		}
		var trad, fork float64
		for _, r := range res {
			trad += r.Slowdown["traditional"]
			fork += r.Slowdown["merge+1M MAC"]
		}
		b.ReportMetric(1-fork/trad, "execsaving")
	}
}

func BenchmarkFig15Energy(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		res, _, err := bench.Fig15(o)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range res {
			sum += r.Norm["merge+1M MAC"]
		}
		b.ReportMetric(1-sum/float64(len(res)), "energysaving")
	}
}

func BenchmarkFig16InOrderOoO(b *testing.B) {
	o := benchOpts()
	o.Mixes = 1
	for i := 0; i < b.N; i++ {
		res, _, err := bench.Fig16(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res[0].InOrderDummyFrac, "inorder-dummyfrac")
		b.ReportMetric(res[0].OoODummyFrac, "ooo-dummyfrac")
	}
}

func BenchmarkFig17aThreads(b *testing.B) {
	o := benchOpts()
	o.Mixes = 1
	for i := 0; i < b.N; i++ {
		res, _, err := bench.Fig17a(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res[len(res)-1].Norm, "norm@8threads")
	}
}

func BenchmarkFig17bORAMSize(b *testing.B) {
	o := benchOpts()
	o.Mixes = 1
	o.RequestsPerCore = 500
	for i := 0; i < b.N; i++ {
		res, _, err := bench.Fig17b(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res[len(res)-1].Norm, "norm@maxsize")
	}
}

func BenchmarkFig18Channels(b *testing.B) {
	o := benchOpts()
	o.Mixes = 1
	for i := 0; i < b.N; i++ {
		res, _, err := bench.Fig18(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res[0].Speedup, "speedup@1ch")
	}
}

func BenchmarkFig19Parsec(b *testing.B) {
	o := benchOpts()
	o.RequestsPerCore = 500
	for i := 0; i < b.N; i++ {
		res, _, err := bench.Fig19(o)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range res {
			sum += r.Norm
		}
		b.ReportMetric(sum/float64(len(res)), "norm-latency")
	}
}

// BenchmarkDeviceOps measures the functional Device's operation cost.
func BenchmarkDeviceOps(b *testing.B) {
	for _, v := range []struct {
		name string
		v    Variant
	}{{"baseline", Baseline}, {"fork", Fork}} {
		b.Run(v.name, func(b *testing.B) {
			d, err := NewDevice(DeviceConfig{Blocks: 1 << 14, Variant: v.v})
			if err != nil {
				b.Fatal(err)
			}
			data := make([]byte, d.BlockSize())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.Write(uint64(i)%(1<<14), data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeviceBatch measures one 32-op Device.Batch on a Mem-backed
// Fork device at perfbench's batch-1k geometry (4,096 blocks of 1 KiB):
// one iteration is one batch, all reads or all writes in turn, over
// uniform addresses of a prefilled device. Mem opens and seals every
// bucket on the calling goroutine, so ns/op is one goroutine's CPU per
// batch, and allocs/op counts what the serve path still allocates (one
// cipher.NewCTR stream per bucket moved, the payload copies the batch
// returns).
func BenchmarkDeviceBatch(b *testing.B) {
	const blocks, batch = 4096, 32
	d, err := NewDevice(DeviceConfig{Blocks: blocks, BlockSize: 1024, Variant: Fork})
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, d.BlockSize())
	ops := make([]BatchOp, batch)
	for a := uint64(0); a < blocks; a += batch {
		for i := range ops {
			ops[i] = BatchOp{Addr: a + uint64(i), Write: true, Data: data}
		}
		if _, err := d.Batch(ops); err != nil {
			b.Fatal(err)
		}
	}
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write := i%2 == 1
		for j := range ops {
			ops[j] = BatchOp{Addr: r.Uint64n(blocks), Write: write}
			if write {
				ops[j].Data = data
			}
		}
		if _, err := d.Batch(ops); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceFileJournal measures one 32-op Service.Batch at
// perfbench's batch-1k geometry (4,096 blocks of 1 KiB on the in-memory
// medium) with a file journal (OpenWALFile) in the benchmark's temporary
// directory: one goroutine alternates all-read and all-write batches
// over uniform addresses of a prefilled service, and no checkpoint runs
// while it is timed. ns/op is one batch's latency through the run loop;
// a write batch includes its window's journal write and fsync, which
// overlaps the window's Device.Batch.
func BenchmarkServiceFileJournal(b *testing.B) {
	const blocks, batch = 4096, 32
	journal, err := OpenWALFile(filepath.Join(b.TempDir(), "journal.wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer journal.Close()
	svc, err := NewService(ServiceConfig{
		Device:          DeviceConfig{Blocks: blocks, BlockSize: 1024, Variant: Fork},
		WAL:             journal,
		CheckpointEvery: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	data := make([]byte, 1024)
	ops := make([]BatchOp, batch)
	for a := uint64(0); a < blocks; a += batch {
		for i := range ops {
			ops[i] = BatchOp{Addr: a + uint64(i), Write: true, Data: data}
		}
		if _, err := svc.Batch(ctx, ops); err != nil {
			b.Fatal(err)
		}
	}
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write := i%2 == 1
		for j := range ops {
			ops[j] = BatchOp{Addr: r.Uint64n(blocks), Write: write}
			if write {
				ops[j].Data = data
			}
		}
		if _, err := svc.Batch(ctx, ops); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := svc.Close(); err != nil {
		b.Fatal(err)
	}
}
