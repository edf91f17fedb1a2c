// Pipelined path fetch, serve/evict and writeback (the intra-shard ORAM
// pipeline).
//
// A pipelined session overlaps the three stages of consecutive Fork Path
// accesses:
//
//	fetch       — ReadBuckets + Open of a scheduled path segment
//	serve/evict — stash mutation, request serving, eviction planning
//	writeback   — EncodeBucket + Seal + WriteBuckets of a planned refill
//
// The fork engine runs serially on the caller's (sequencer)
// goroutine and fixes the whole schedule ahead of execution; the stages
// run on the concurrent serve stage of concurrent.go, which keeps every
// result and every byte of adversary-visible traffic identical to the
// serial engine.
//
// Why overlapping is safe: the fork engine commits the next scheduled
// access at Finish (the fork point becomes visible, so dummy-request
// replacing can no longer swap it). From that instant, access N+1's
// label and read range [overlap(N,N+1), L] are fixed — and provably
// DISJOINT from access N's write set [overlap(N,N+1), L] on path N,
// because the two paths diverge exactly at the overlap level. Deeper
// overlap (writeback N-1 vs. fetch N+1) can conflict, e.g. when labels
// repeat; the stage tracks planned writeback nodes as hazards and a
// fetch waits until every older write to a node it needs has landed — a
// store buffer, in CPU terms.
//
// Why prefetch leaks nothing: the schedule is deterministic given the
// (public) access sequence; prefetching path N+1 only moves memory
// traffic the adversary was already going to observe earlier in time,
// and its timing depends on queue occupancy the adversary cannot see
// beyond what the serial engine already reveals.
package pathoram

import (
	"errors"
	"fmt"
	"time"

	"forkoram/internal/tree"
)

// ErrPipelineDepth rejects PipelineOpts.Depth < 1: a configuration bug,
// not a request for the serial path, which is expressed as Depth: 1.
var ErrPipelineDepth = errors.New("pathoram: pipeline depth must be >= 1")

// PipelineStats counts pipelined work and per-stage stalls. Counters
// accumulate across dispatch windows (folded in as each session stops).
type PipelineStats struct {
	// Windows is the number of pipelined dispatch windows run.
	Windows uint64 `json:"windows"`
	// Prefetches counts path segments fetched ahead of their access;
	// PrefetchedBuckets the buckets they carried.
	Prefetches        uint64 `json:"prefetches"`
	PrefetchedBuckets uint64 `json:"prefetched_buckets"`
	// Writebacks counts access refills written back to storage.
	Writebacks uint64 `json:"writebacks"`
	// FetchWaits/FetchWaitNs: fetch-stage stalls — fetches that waited
	// for a conflicting older writeback to land before touching storage.
	FetchWaits  uint64 `json:"fetch_waits"`
	FetchWaitNs uint64 `json:"fetch_wait_ns"`
	// EvictWaits/EvictWaitNs: serve/evict-stage stalls — in-order
	// resolution blocked waiting for the head access's path to arrive.
	EvictWaits  uint64 `json:"evict_waits"`
	EvictWaitNs uint64 `json:"evict_wait_ns"`
	// WritebackWaits/WritebackWaitNs: writeback-stage stalls — refill
	// submissions blocked on the bounded writeback queue or job pool.
	WritebackWaits  uint64 `json:"writeback_waits"`
	WritebackWaitNs uint64 `json:"writeback_wait_ns"`
	// ServeWaits/ServeWaitNs: admission stalls — the sequencer blocked
	// starting a new access because all Depth in-flight slots were
	// occupied (window backpressure).
	ServeWaits  uint64 `json:"serve_waits,omitempty"`
	ServeWaitNs uint64 `json:"serve_wait_ns,omitempty"`
	// DepWaits/DepWaitNs: dependency stalls — accesses that parked
	// behind a conflicting older in-flight access (RAW/WAR/WAW at the
	// stash, or overlapping fork-path node sets) and the time from park
	// to dispatch.
	DepWaits  uint64 `json:"dep_waits,omitempty"`
	DepWaitNs uint64 `json:"dep_wait_ns,omitempty"`
	// WindowTurnarounds/WindowTurnaroundNs: inter-window stalls — the
	// gap between one pipelined window's completion (its StopPipeline:
	// last retire, writebacks landed, workers joined) and the next
	// window's first fetch issue. It spans the window's serial last
	// access and the next window's serial refill of it (the held
	// access, DESIGN.md §16), and under a Service the whole
	// group-commit turnaround (gather, journal append, fsync). Only
	// meaningful under saturation: with idle clients the gap
	// includes think time.
	WindowTurnarounds  uint64 `json:"window_turnarounds,omitempty"`
	WindowTurnaroundNs uint64 `json:"window_turnaround_ns,omitempty"`
}

// Add folds o into s (aggregation across shards or windows).
func (s *PipelineStats) Add(o PipelineStats) {
	s.Windows += o.Windows
	s.Prefetches += o.Prefetches
	s.PrefetchedBuckets += o.PrefetchedBuckets
	s.Writebacks += o.Writebacks
	s.FetchWaits += o.FetchWaits
	s.FetchWaitNs += o.FetchWaitNs
	s.EvictWaits += o.EvictWaits
	s.EvictWaitNs += o.EvictWaitNs
	s.WritebackWaits += o.WritebackWaits
	s.WritebackWaitNs += o.WritebackWaitNs
	s.ServeWaits += o.ServeWaits
	s.ServeWaitNs += o.ServeWaitNs
	s.DepWaits += o.DepWaits
	s.DepWaitNs += o.DepWaitNs
	s.WindowTurnarounds += o.WindowTurnarounds
	s.WindowTurnaroundNs += o.WindowTurnaroundNs
}

// Delta returns s - prev, for before/after snapshots of cumulative
// counters.
func (s PipelineStats) Delta(prev PipelineStats) PipelineStats {
	return PipelineStats{
		Windows:            s.Windows - prev.Windows,
		Prefetches:         s.Prefetches - prev.Prefetches,
		PrefetchedBuckets:  s.PrefetchedBuckets - prev.PrefetchedBuckets,
		Writebacks:         s.Writebacks - prev.Writebacks,
		FetchWaits:         s.FetchWaits - prev.FetchWaits,
		FetchWaitNs:        s.FetchWaitNs - prev.FetchWaitNs,
		EvictWaits:         s.EvictWaits - prev.EvictWaits,
		EvictWaitNs:        s.EvictWaitNs - prev.EvictWaitNs,
		WritebackWaits:     s.WritebackWaits - prev.WritebackWaits,
		WritebackWaitNs:    s.WritebackWaitNs - prev.WritebackWaitNs,
		ServeWaits:         s.ServeWaits - prev.ServeWaits,
		ServeWaitNs:        s.ServeWaitNs - prev.ServeWaitNs,
		DepWaits:           s.DepWaits - prev.DepWaits,
		DepWaitNs:          s.DepWaitNs - prev.DepWaitNs,
		WindowTurnarounds:  s.WindowTurnarounds - prev.WindowTurnarounds,
		WindowTurnaroundNs: s.WindowTurnaroundNs - prev.WindowTurnaroundNs,
	}
}

// PipelineOpts shapes one pipelined session.
type PipelineOpts struct {
	// Depth bounds the in-flight accesses of the session (>= 2 engages
	// the pipeline; 1 is the serial path). It also sizes the stage: Depth
	// fetch and serve workers, and Depth-1 refills queued behind the
	// writes in flight.
	Depth int
	// Observer, when set, receives each access's bus trace at retire
	// time, in program order. The slices are owned by the callee only for
	// the duration of the call.
	Observer func(label tree.Label, dummy bool, read, write []tree.Node)
	// Kill, when set, is polled by serve workers before each access's
	// stash phase; a non-nil error aborts the session with that error
	// (chaos kill point).
	Kill func() error
}

// StartPipelineOpts arms the pipelined serve stage (DESIGN.md §15).
// Depth < 1 is rejected with a typed error. It reports false — leaving
// the controller on the serial path — when the backend has no bulk
// interface (Integrity or Faults decorators pin per-bucket semantics),
// when Depth is 1 (the serial path itself), when a session is already
// open, or when the controller has already fail-stopped. Every call
// that returns true must be paired with a StopPipeline before the
// controller is used serially again.
func (c *Controller) StartPipelineOpts(o PipelineOpts) (bool, error) {
	if o.Depth < 1 {
		return false, fmt.Errorf("%w (got %d)", ErrPipelineDepth, o.Depth)
	}
	if c.err != nil || c.bulk == nil || o.Depth < 2 || c.cs != nil {
		return false, nil
	}
	c.cs = newCserve(c, o)
	return true, nil
}

// StopPipeline drains the in-flight accesses and writebacks, joins the
// stage workers, folds the session's statistics as one window, and
// returns the first error any stage latched (also latching it as the
// controller's fatal error: a failed writeback lost evicted blocks, so
// the controller must fail-stop exactly like a serial write failure).
func (c *Controller) StopPipeline() error {
	if c.cs == nil {
		return c.err
	}
	cs := c.cs
	c.cs = nil
	err := cs.stop()
	delta := cs.stats
	delta.Add(cs.shared)
	delta.Windows = 1
	c.pipeStats.Add(delta)
	c.seamStart = time.Now()
	if err != nil && c.err == nil {
		c.err = err
	}
	return c.err
}

// noteFirstFetch records the window-turnaround stall: the gap between
// the previous window's completion (its StopPipeline) and this window's
// first fetch issue. Sequencer goroutine only, like pipeStats itself.
func (c *Controller) noteFirstFetch() {
	if c.seamStart.IsZero() {
		return
	}
	c.pipeStats.WindowTurnarounds++
	c.pipeStats.WindowTurnaroundNs += uint64(time.Since(c.seamStart))
	c.seamStart = time.Time{}
}

// Prefetch starts fetching the path of the next committed access —
// levels [fromLevel, L] of label — on a fetch worker. The caller (the
// Fork drive loop) must only pass a schedule the engine has committed
// (Engine.NextScheduled), or the next ReadRange will fault on the
// mismatch. No-op outside a pipelined session.
func (c *Controller) Prefetch(label tree.Label, fromLevel uint) {
	if c.err != nil || fromLevel > c.tr.LeafLevel() || c.cs == nil {
		return
	}
	c.cs.prefetch(label, fromLevel)
}

// PipelineStats returns counters accumulated over every completed
// pipelined window.
func (c *Controller) PipelineStats() PipelineStats { return c.pipeStats }
