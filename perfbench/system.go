package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"forkoram"
	"forkoram/internal/block"
	"forkoram/internal/recursion"
	"forkoram/internal/storage"
)

// bucketZ is the device's default bucket capacity; the in-memory medium
// the benchmark builds itself must match it.
const bucketZ = 4

// frontDoor is the client-facing API Service and ShardedService share.
type frontDoor interface {
	Read(ctx context.Context, addr uint64) ([]byte, error)
	Write(ctx context.Context, addr uint64, data []byte) error
	Batch(ctx context.Context, ops []forkoram.BatchOp) ([][]byte, error)
	Checkpoint(ctx context.Context) error
	Close() error
}

// system is one service under test with its wrapped layers and the
// files it owns.
type system struct {
	front   frontDoor
	svc     *forkoram.Service
	sharded *forkoram.ShardedService
	shards  []*shardLayers
	closers []io.Closer // journal files and disk media, closed after the service
	dir     string
}

// newMemMedium builds the in-memory bucket store a device of cfg would
// build for itself, sized by the same plan (NewDevice rejects a medium
// whose tree or geometry differs).
func newMemMedium(cfg forkoram.DeviceConfig) (storage.Medium, error) {
	_, tr, err := recursion.Plan(recursion.Config{
		DataBlocks:     cfg.Blocks,
		LabelsPerBlock: 2,
		OnChipEntries:  cfg.Blocks,
		Z:              bucketZ,
		PayloadSize:    cfg.BlockSize,
	})
	if err != nil {
		return nil, err
	}
	return storage.NewMem(tr, block.Geometry{Z: bucketZ, PayloadSize: cfg.BlockSize}, make([]byte, 16))
}

// build opens fresh stores under dir and starts the service for w.
func build(w *workload, dir string, tr *tracer) (sys *system, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sys = &system{dir: dir}
	defer func() {
		if err != nil {
			sys.close()
		}
	}()
	dev := forkoram.DeviceConfig{Blocks: w.blocks, BlockSize: w.blockSize, Variant: forkoram.Fork}
	width := max(w.shards, 1)
	policy := forkoram.RoutingPolicy{Version: 1, Shards: width}
	for i := 0; i < width; i++ {
		sdev := dev
		sdev.Blocks = policy.ShardBlocks(w.blocks, i)
		var med storage.Medium
		if w.disk {
			d, err := forkoram.NewDiskMedium(sdev, filepath.Join(dir, fmt.Sprintf("buckets-%d.oram", i)))
			if err != nil {
				return sys, err
			}
			sys.closers = append(sys.closers, d)
			med = d
		} else if med, err = newMemMedium(sdev); err != nil {
			return sys, err
		}
		wf, err := forkoram.OpenWALFile(filepath.Join(dir, fmt.Sprintf("wal-%d.log", i)))
		if err != nil {
			return sys, err
		}
		sys.closers = append(sys.closers, wf)
		sys.shards = append(sys.shards, newShardLayers(i, tr, wf, med, forkoram.NewMemCheckpointStore()))
	}
	if w.shards == 0 {
		sh := sys.shards[0]
		dev.Storage.Medium, dev.Observer = sh.medium, sh.observe
		sys.svc, err = forkoram.NewService(forkoram.ServiceConfig{
			Device: dev, WAL: sh.wal, Checkpoints: sh.ckpt, CheckpointEvery: w.ckptEvery,
		})
		if err != nil {
			return sys, err
		}
		sys.front = sys.svc
		return sys, nil
	}
	sys.sharded, err = forkoram.NewShardedService(forkoram.ShardedServiceConfig{
		Shards:  w.shards,
		Service: forkoram.ServiceConfig{Device: dev, CheckpointEvery: w.ckptEvery},
		PerShard: func(p forkoram.RoutingPolicy, i int, sc *forkoram.ServiceConfig) {
			if p != policy {
				return // no reshard runs; a later generation keeps the defaults
			}
			sh := sys.shards[i]
			sc.Device.Storage.Medium, sc.Device.Observer = sh.medium, sh.observe
			sc.WAL, sc.Checkpoints = sh.wal, sh.ckpt
		},
	})
	if err != nil {
		return sys, err
	}
	sys.front = sys.sharded
	return sys, nil
}

// stats returns each shard's service counters.
func (s *system) stats() []forkoram.ServiceStats {
	if s.svc != nil {
		return []forkoram.ServiceStats{s.svc.Stats()}
	}
	per := s.sharded.Stats().PerShard
	out := make([]forkoram.ServiceStats, len(per))
	for i, p := range per {
		out[i] = p.Stats
	}
	return out
}

// snapshot is the counters a phase is measured between.
type snapshot struct {
	stats  []forkoram.ServiceStats // per shard
	counts counts                  // summed over shards
}

func (s *system) snapshot() snapshot {
	var c counts
	for _, sh := range s.shards {
		n := sh.counts()
		for k := range c {
			c[k] += n[k]
		}
	}
	return snapshot{s.stats(), c}
}

// sealedBucketBytes is the size of one stored bucket image, read back
// from the first written bucket of the medium. Fork Path may hold the
// top of the tree on chip, so the root can still be unwritten.
func (s *system) sealedBucketBytes() int {
	med := s.shards[0].medium.Medium
	for n := uint64(0); n < med.Tree().Nodes(); n++ {
		if ct := med.Ciphertext(n); ct != nil {
			return len(ct)
		}
	}
	return 0
}

// quiesce returns once every shard's worker is idle: a read of address
// i lands on shard i and queues behind whatever that shard is doing.
func (s *system) quiesce(ctx context.Context) error {
	for i := range s.shards {
		if _, err := s.front.Read(ctx, uint64(i)); err != nil {
			return err
		}
	}
	return nil
}

// close stops the service, closes the files it used and removes them.
func (s *system) close() error {
	var errs []error
	if s.front != nil {
		errs = append(errs, s.front.Close())
	}
	for _, c := range s.closers {
		errs = append(errs, c.Close())
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}
