package storage

import (
	"fmt"
	"sync"
	"time"

	"forkoram/internal/block"
	"forkoram/internal/rng"
	"forkoram/internal/tree"
)

// RemoteConfig shapes a simulated remote tier: cloud object storage or
// a far NUMA/network hop in front of the real medium. Latency is
// injected per call (plus per bucket, modelling payload transfer) and
// transient failures are drawn from a deterministic stream so campaigns
// replay exactly.
type RemoteConfig struct {
	// Seed drives the transient-fault stream. Runs with the same seed
	// and call sequence fail identically.
	Seed uint64
	// ReadLatency / WriteLatency is the fixed round-trip cost per call
	// (a bulk call pays it once — the point of batching against a
	// remote tier).
	ReadLatency  time.Duration
	WriteLatency time.Duration
	// PerBucketLatency is added per bucket in the call, modelling
	// payload transfer time.
	PerBucketLatency time.Duration
	// PTransientRead / PTransientWrite is the probability that a call
	// fails with an error wrapping ErrTransient (after paying its
	// latency — a failed round trip still costs a round trip).
	PTransientRead  float64
	PTransientWrite float64
	// MaxFaults caps the total transient failures injected (0 = no
	// cap). Lets tests and campaigns bound the adversary.
	MaxFaults int
	// Sleep replaces time.Sleep — test hook so latency-shaped tests run
	// in virtual time.
	Sleep func(time.Duration)
}

// RemoteStats counts what the simulated remote tier did.
type RemoteStats struct {
	ReadCalls       uint64 // read round trips (bulk counts once)
	WriteCalls      uint64 // write round trips
	Buckets         uint64 // total buckets moved
	TransientReads  uint64 // injected read failures
	TransientWrites uint64 // injected write failures
	LatencyInjected time.Duration
}

// Delta returns s - prev, field-wise.
func (s RemoteStats) Delta(prev RemoteStats) RemoteStats {
	return RemoteStats{
		ReadCalls:       s.ReadCalls - prev.ReadCalls,
		WriteCalls:      s.WriteCalls - prev.WriteCalls,
		Buckets:         s.Buckets - prev.Buckets,
		TransientReads:  s.TransientReads - prev.TransientReads,
		TransientWrites: s.TransientWrites - prev.TransientWrites,
		LatencyInjected: s.LatencyInjected - prev.LatencyInjected,
	}
}

// Add accumulates o into s.
func (s *RemoteStats) Add(o RemoteStats) {
	s.ReadCalls += o.ReadCalls
	s.WriteCalls += o.WriteCalls
	s.Buckets += o.Buckets
	s.TransientReads += o.TransientReads
	s.TransientWrites += o.TransientWrites
	s.LatencyInjected += o.LatencyInjected
}

// Remote wraps a base medium's bulk surface with simulated distance:
// configurable latency and deterministic transient faults. It implements
// BulkBackend — a bulk call pays one round trip, which is exactly the
// economics that make batch-first storage win against a remote tier.
//
// Concurrency: safe for one concurrent bulk reader and writer (the
// concurrent bulk contract); the rng and stats are guarded by mu,
// latency is slept outside it.
// One Float64 is drawn per call regardless of configuration so fault
// schedules are a pure function of (seed, call index).
type Remote struct {
	inner BulkBackend
	cfg   RemoteConfig
	sleep func(time.Duration)

	mu     sync.Mutex
	rnd    *rng.Source
	stats  RemoteStats
	faults int
}

// NewRemote wraps inner with the simulated remote tier.
func NewRemote(inner BulkBackend, cfg RemoteConfig) *Remote {
	sleep := cfg.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	return &Remote{inner: inner, cfg: cfg, sleep: sleep, rnd: rng.New(cfg.Seed)}
}

// before accounts one call: latency, stats, and the fault draw.
func (r *Remote) before(read bool, buckets int) error {
	var lat time.Duration
	var p float64
	r.mu.Lock()
	if read {
		r.stats.ReadCalls++
		lat = r.cfg.ReadLatency
		p = r.cfg.PTransientRead
	} else {
		r.stats.WriteCalls++
		lat = r.cfg.WriteLatency
		p = r.cfg.PTransientWrite
	}
	lat += time.Duration(buckets) * r.cfg.PerBucketLatency
	r.stats.Buckets += uint64(buckets)
	r.stats.LatencyInjected += lat
	fault := r.rnd.Float64() < p // always one draw per call: schedule = f(seed, call index)
	if fault && r.cfg.MaxFaults > 0 && r.faults >= r.cfg.MaxFaults {
		fault = false
	}
	if fault {
		r.faults++
		if read {
			r.stats.TransientReads++
		} else {
			r.stats.TransientWrites++
		}
	}
	r.mu.Unlock()
	if lat > 0 {
		r.sleep(lat)
	}
	if fault {
		side := "write"
		if read {
			side = "read"
		}
		return fmt.Errorf("storage: remote %s failed in flight: %w", side, ErrTransient)
	}
	return nil
}

// ReadBucket implements Backend.
func (r *Remote) ReadBucket(n tree.Node) (block.Bucket, error) {
	if err := r.before(true, 1); err != nil {
		return block.Bucket{}, err
	}
	return r.inner.ReadBucket(n)
}

// WriteBucket implements Backend.
func (r *Remote) WriteBucket(n tree.Node, b *block.Bucket) error {
	if err := r.before(false, 1); err != nil {
		return err
	}
	return r.inner.WriteBucket(n, b)
}

// ReadBuckets implements BulkBackend: one round trip for the whole set.
func (r *Remote) ReadBuckets(ns []tree.Node, out []block.Bucket) error {
	if err := r.before(true, len(ns)); err != nil {
		return err
	}
	return r.inner.ReadBuckets(ns, out)
}

// WriteBuckets implements BulkBackend: one round trip for the whole set.
func (r *Remote) WriteBuckets(ns []tree.Node, bks []block.Bucket) error {
	if err := r.before(false, len(ns)); err != nil {
		return err
	}
	return r.inner.WriteBuckets(ns, bks)
}

// Geometry implements Backend.
func (r *Remote) Geometry() block.Geometry { return r.inner.Geometry() }

// Counters implements Backend, delegating to the wrapped medium.
func (r *Remote) Counters() Counters { return r.inner.Counters() }

// Stats returns a copy of the remote-tier counters.
func (r *Remote) Stats() RemoteStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

var _ BulkBackend = (*Remote)(nil)
