package pathoram

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"forkoram/internal/block"
	"forkoram/internal/rng"
	"forkoram/internal/storage"
	"forkoram/internal/tree"
)

// pipeHarness builds a controller over a fresh Mem backend and seeds its
// stash with real blocks labelled from labels, so refills have something
// to evict and reads something to find.
func pipeHarness(t *testing.T, tr tree.Tree, geo block.Geometry, labels []tree.Label, seedBlocks int) *Controller {
	t.Helper()
	st, err := storage.NewMem(tr, geo, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(Config{Tree: tr, StashCapacity: 400, TrackData: true}, st)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < seedBlocks; a++ {
		c.stash.Put(block.Block{
			Addr:  uint64(a),
			Label: labels[a%len(labels)],
			Data:  payload(geo.PayloadSize, byte(a)),
		})
	}
	return c
}

// startPipeline opens a pipelined session of the given depth or fails
// the test.
func startPipeline(t *testing.T, c *Controller, depth int) {
	t.Helper()
	ok, err := c.StartPipelineOpts(PipelineOpts{Depth: depth})
	if err != nil || !ok {
		t.Fatalf("StartPipelineOpts(depth %d) = %v, %v on a bulk backend", depth, ok, err)
	}
}

// TestPipelineMatchesSerial drives two identically-seeded controllers
// through the same fork-style access sequence — merged reads from the
// overlap level, one served block per access where one is on the path
// (a dummy traversal otherwise), per-level leaf-to-root refills stopping
// at the overlap with the next label — one serially and one inside a
// pipelined session with prefetch hints, deferred serves and committed
// footprints. Every adversary-visible node sequence (read and written,
// in program order), every served payload, the final stash, and the
// final medium must match: the pipeline may overlap stages in time,
// never change what they do.
func TestPipelineMatchesSerial(t *testing.T) {
	tr := tree.MustNew(6)
	geo := block.Geometry{Z: 4, PayloadSize: 64}
	const steps, seedBlocks = 120, 32

	src := rng.New(99)
	labels := make([]tree.Label, steps)
	relabels := make([]tree.Label, steps)
	for i := range labels {
		labels[i] = tree.Label(src.Uint64n(tr.Leaves()))
		relabels[i] = tree.Label(src.Uint64n(tr.Leaves()))
	}

	type trace struct {
		reads, writes []tree.Node
		served        [][]byte // per step; nil for a dummy traversal
	}
	// drive runs the access sequence, serially or inside a session.
	drive := func(c *Controller, pipelined bool) *trace {
		out := &trace{served: make([][]byte, steps)}
		var mu sync.Mutex // deferred serves complete on stage workers
		pos := make(map[uint64]tree.Label, seedBlocks)
		for a := 0; a < seedBlocks; a++ {
			pos[uint64(a)] = labels[a%len(labels)]
		}
		var buf []tree.Node
		for i, label := range labels {
			from := uint(0)
			if i > 0 {
				from = tr.Overlap(labels[i-1], label)
			}
			if from <= tr.LeafLevel() {
				var err error
				buf, err = c.ReadRange(label, from, buf[:0])
				if err != nil {
					t.Fatalf("step %d: read: %v", i, err)
				}
				out.reads = append(out.reads, buf...)
			}
			// The whole path is in the stash now (the unread prefix was
			// never written back), so any block mapped to label is too.
			served := false
			for a := uint64(0); a < seedBlocks; a++ {
				if pos[a] != label {
					continue
				}
				pos[a] = relabels[i]
				data := payload(geo.PayloadSize, byte(i))
				if pipelined {
					if !c.DeferServe(OpWrite, a, relabels[i], data, func(o []byte, err error) {
						mu.Lock()
						out.served[i] = o
						mu.Unlock()
					}) {
						t.Fatalf("step %d: DeferServe refused inside a session", i)
					}
				} else {
					o, err := c.FetchBlock(OpWrite, a, relabels[i], data)
					if err != nil {
						t.Fatalf("step %d: fetch: %v", i, err)
					}
					out.served[i] = o
				}
				served = true
				break
			}
			stop := uint(0)
			if i+1 < len(labels) {
				stop = tr.Overlap(label, labels[i+1])
			}
			for lvl := int(tr.LeafLevel()); lvl >= int(stop); lvl-- {
				n, err := c.WriteLevel(label, uint(lvl))
				if err != nil {
					t.Fatalf("step %d: write level %d: %v", i, lvl, err)
				}
				out.writes = append(out.writes, n)
			}
			if pipelined {
				if err := c.CommitAccess(AccessDeps{Label: label, ReadFrom: from, Stop: stop, Dummy: !served}); err != nil {
					t.Fatalf("step %d: commit: %v", i, err)
				}
				if i+1 < len(labels) {
					if nextFrom := tr.Overlap(label, labels[i+1]); nextFrom <= tr.LeafLevel() {
						c.Prefetch(labels[i+1], nextFrom)
					}
				}
			}
			c.EndAccess()
		}
		return out
	}

	ref := pipeHarness(t, tr, geo, labels, seedBlocks)
	refOut := drive(ref, false)

	pip := pipeHarness(t, tr, geo, labels, seedBlocks)
	startPipeline(t, pip, 4)
	pipOut := drive(pip, true)
	if err := pip.StopPipeline(); err != nil {
		t.Fatalf("StopPipeline: %v", err)
	}

	for _, side := range []struct {
		name     string
		ref, pip []tree.Node
	}{{"read", refOut.reads, pipOut.reads}, {"write", refOut.writes, pipOut.writes}} {
		if len(side.ref) != len(side.pip) {
			t.Fatalf("%s trace lengths diverged: %d vs %d", side.name, len(side.ref), len(side.pip))
		}
		for i := range side.ref {
			if side.ref[i] != side.pip[i] {
				t.Fatalf("%s trace diverged at %d: %d vs %d", side.name, i, side.ref[i], side.pip[i])
			}
		}
	}
	reals := 0
	for i := range refOut.served {
		if (refOut.served[i] == nil) != (pipOut.served[i] == nil) || !bytes.Equal(refOut.served[i], pipOut.served[i]) {
			t.Fatalf("step %d: served payload diverged", i)
		}
		if refOut.served[i] != nil {
			reals++
		}
	}
	if reals == 0 || reals == steps {
		t.Fatalf("%d of %d steps served a block: want a real/dummy mix", reals, steps)
	}

	st := pip.PipelineStats()
	if st.Windows != 1 {
		t.Fatalf("want 1 pipelined window, got %d", st.Windows)
	}
	if st.Prefetches == 0 || st.PrefetchedBuckets == 0 {
		t.Fatalf("pipeline never prefetched: %+v", st)
	}
	if st.Writebacks == 0 {
		t.Fatalf("pipeline never wrote back: %+v", st)
	}
	if w, g := ref.stash.Stats().Accesses, pip.stash.Stats().Accesses; w != g {
		t.Fatalf("stash samples diverged: %d vs %d", w, g)
	}

	// Final stash: identical occupancy and identical blocks.
	if w, g := ref.stash.Len(), pip.stash.Len(); w != g {
		t.Fatalf("stash occupancy diverged: %d vs %d", w, g)
	}
	for a := uint64(0); a < seedBlocks; a++ {
		rb, rok := ref.stash.Get(a)
		pb, pok := pip.stash.Get(a)
		if rok != pok {
			t.Fatalf("stash presence of addr %d diverged", a)
		}
		if rok && (rb.Label != pb.Label || !bytes.Equal(rb.Data, pb.Data)) {
			t.Fatalf("stash block %d diverged", a)
		}
	}

	// Final medium: every bucket holds the same blocks (ciphertexts
	// differ by nonce; contents must not).
	for n := tree.Node(0); n < tree.Node(tr.Nodes()); n++ {
		rb, err := ref.store.ReadBucket(n)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]block.Block(nil), rb.Blocks...)
		for i := range want {
			want[i].Data = append([]byte(nil), want[i].Data...)
		}
		pb, err := pip.store.ReadBucket(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(pb.Blocks) {
			t.Fatalf("bucket %d occupancy diverged: %d vs %d", n, len(want), len(pb.Blocks))
		}
		for i := range want {
			if want[i].Addr != pb.Blocks[i].Addr || want[i].Label != pb.Blocks[i].Label ||
				!bytes.Equal(want[i].Data, pb.Blocks[i].Data) {
				t.Fatalf("bucket %d block %d diverged", n, i)
			}
		}
	}
}

// TestPipelineStartGates pins the conditions under which the pipeline
// refuses to engage, leaving the serial path untouched.
func TestPipelineStartGates(t *testing.T) {
	tr := tree.MustNew(4)
	geo := block.Geometry{Z: 4, PayloadSize: 32}
	st, err := storage.NewMem(tr, geo, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	start := func(c *Controller, depth int) bool {
		t.Helper()
		ok, err := c.StartPipelineOpts(PipelineOpts{Depth: depth})
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		return ok
	}

	serial, err := NewController(Config{Tree: tr, StashCapacity: 100}, noBulk{st})
	if err != nil {
		t.Fatal(err)
	}
	if start(serial, 4) {
		t.Fatal("pipeline engaged without a bulk backend")
	}

	c, err := NewController(Config{Tree: tr, StashCapacity: 100}, st)
	if err != nil {
		t.Fatal(err)
	}
	if start(c, 1) {
		t.Fatal("pipeline engaged at depth 1 (serial by definition)")
	}
	if !start(c, 2) {
		t.Fatal("pipeline refused a valid depth-2 request")
	}
	if start(c, 2) {
		t.Fatal("pipeline engaged twice without StopPipeline")
	}
	if !c.DeferServe(OpRead, 0, 0, nil, nil) {
		t.Fatal("DeferServe refused inside an open session")
	}
	if err := c.StopPipeline(); err != nil {
		t.Fatalf("StopPipeline on idle pipeline: %v", err)
	}
	if st := c.PipelineStats(); st.Windows != 1 {
		t.Fatalf("want 1 window recorded, got %d", st.Windows)
	}
	if c.DeferServe(OpRead, 0, 0, nil, nil) {
		t.Fatal("DeferServe accepted work outside a session")
	}

	c.err = errors.New("already failed")
	if start(c, 2) {
		t.Fatal("pipeline engaged on a failed controller")
	}
}

// TestStartPipelineOptsValidation pins the typed rejection edges of
// StartPipelineOpts: a nonsensical depth is an error (not a silent
// serial fallback), depth 1 is the serial path, and any deeper window
// engages.
func TestStartPipelineOptsValidation(t *testing.T) {
	tr := tree.MustNew(4)
	geo := block.Geometry{Z: 4, PayloadSize: 32}

	cases := []struct {
		name    string
		opts    PipelineOpts
		wantErr error
		started bool
	}{
		{name: "depth zero", opts: PipelineOpts{Depth: 0}, wantErr: ErrPipelineDepth},
		{name: "depth negative", opts: PipelineOpts{Depth: -3}, wantErr: ErrPipelineDepth},
		{name: "depth four", opts: PipelineOpts{Depth: 4}, started: true},
		{name: "depth one is serial", opts: PipelineOpts{Depth: 1}}, // gate, not an error
	}
	for _, tc := range cases {
		st, err := storage.NewMem(tr, geo, make([]byte, 16))
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewController(Config{Tree: tr, StashCapacity: 100}, st)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := c.StartPipelineOpts(tc.opts)
		if tc.wantErr != nil {
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("%s: error %v, want %v", tc.name, err, tc.wantErr)
			}
			if ok {
				t.Fatalf("%s: started despite invalid options", tc.name)
			}
			// A rejected start must not fail-stop the controller.
			if c.Err() != nil {
				t.Fatalf("%s: rejection latched controller error %v", tc.name, c.Err())
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: unexpected error %v", tc.name, err)
		}
		if ok != tc.started {
			t.Fatalf("%s: started=%v, want %v", tc.name, ok, tc.started)
		}
		if ok {
			if err := c.StopPipeline(); err != nil {
				t.Fatalf("%s: stop: %v", tc.name, err)
			}
		}
	}
}

// failingBulk wraps a BulkBackend and fails WriteBuckets after a set
// number of calls — the worker-side failure the pipeline must latch.
// Writebacks run on stage goroutines, so the budget is locked.
type failingBulk struct {
	storage.BulkBackend
	mu        sync.Mutex
	remaining int
}

var errBulkWrite = errors.New("injected bulk write failure")

func (f *failingBulk) WriteBuckets(ns []tree.Node, bks []block.Bucket) error {
	f.mu.Lock()
	fail := f.remaining <= 0
	f.remaining--
	f.mu.Unlock()
	if fail {
		return errBulkWrite
	}
	return f.BulkBackend.WriteBuckets(ns, bks)
}

// TestPipelineWritebackErrorFailStops verifies that a writeback failure
// on a stage worker surfaces (at the latest) at StopPipeline and
// fail-stops the controller — the planned evictions are lost, exactly
// like a serial write failure.
func TestPipelineWritebackErrorFailStops(t *testing.T) {
	tr := tree.MustNew(5)
	geo := block.Geometry{Z: 4, PayloadSize: 32}
	st, err := storage.NewMem(tr, geo, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(Config{Tree: tr, StashCapacity: 200, TrackData: true}, &failingBulk{BulkBackend: st, remaining: 2})
	if err != nil {
		t.Fatal(err)
	}
	startPipeline(t, c, 2)
	var derr error
	for i := 0; i < 8 && derr == nil; i++ {
		label := tree.Label(uint64(i) % tr.Leaves())
		if _, derr = c.ReadRange(label, 0, nil); derr != nil {
			break
		}
		for lvl := int(tr.LeafLevel()); lvl >= 0 && derr == nil; lvl-- {
			_, derr = c.WriteLevel(label, uint(lvl))
		}
		if derr == nil {
			derr = c.CommitAccess(AccessDeps{Label: label, ReadFrom: 0, Stop: 0, Dummy: true})
		}
		c.EndAccess()
	}
	serr := c.StopPipeline()
	if derr == nil && serr == nil {
		t.Fatal("injected writeback failure never surfaced")
	}
	if !errors.Is(c.Err(), errBulkWrite) {
		t.Fatalf("controller error = %v, want the injected failure", c.Err())
	}
	if _, err := c.ReadRange(0, 0, nil); !errors.Is(err, errBulkWrite) {
		t.Fatalf("controller kept serving after writeback failure: %v", err)
	}
}

// TestPipelinePrefetchMismatchFaults verifies the engine-bug tripwire:
// consuming a prefetch staged for a different (label, level) must fault
// rather than silently serve the wrong path.
func TestPipelinePrefetchMismatchFaults(t *testing.T) {
	tr := tree.MustNew(5)
	geo := block.Geometry{Z: 4, PayloadSize: 32}
	st, err := storage.NewMem(tr, geo, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(Config{Tree: tr, StashCapacity: 200}, st)
	if err != nil {
		t.Fatal(err)
	}
	startPipeline(t, c, 2)
	c.Prefetch(3, 0)
	if _, err := c.ReadRange(5, 0, nil); err == nil || !strings.Contains(err.Error(), "prefetch mismatch") {
		t.Fatalf("mismatched prefetch consumed: err %v", err)
	}
	if c.Err() == nil {
		t.Fatal("mismatch did not fail-stop the controller")
	}
	if err := c.StopPipeline(); err == nil {
		t.Fatal("StopPipeline cleared a fail-stopped controller")
	}
}

// TestPipelineCommitDivergenceFaults fires the stage's other engine-bug
// tripwire: an access whose engine-reported footprint (label, first
// level read, lowest level written, dummy flag) disagrees with what the
// stage recorded must be refused at CommitAccess — executing a plan the
// engine did not schedule would break trace equivalence — and must
// fail-stop the controller.
func TestPipelineCommitDivergenceFaults(t *testing.T) {
	tr := tree.MustNew(5)
	geo := block.Geometry{Z: 4, PayloadSize: 32}
	leaf := tr.LeafLevel()
	const label = tree.Label(5)
	cases := []struct {
		name  string
		serve bool
		deps  AccessDeps
		want  string
	}{
		{"label", true, AccessDeps{Label: 6, ReadFrom: 2, Stop: 3}, "footprint divergence"},
		{"read level", true, AccessDeps{Label: label, ReadFrom: 1, Stop: 3}, "footprint divergence"},
		{"stop level", true, AccessDeps{Label: label, ReadFrom: 2, Stop: leaf + 1}, "footprint divergence"},
		{"serve under dummy", true, AccessDeps{Label: label, ReadFrom: 2, Stop: 3, Dummy: true}, "serve divergence"},
		{"real without serve", false, AccessDeps{Label: label, ReadFrom: 2, Stop: 3}, "serve divergence"},
	}
	for _, tc := range cases {
		st, err := storage.NewMem(tr, geo, make([]byte, 16))
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewController(Config{Tree: tr, StashCapacity: 200, TrackData: true}, st)
		if err != nil {
			t.Fatal(err)
		}
		startPipeline(t, c, 2)
		// A well-formed recording: read [2, L], serve, write [3, L].
		if _, err := c.ReadRange(label, 2, nil); err != nil {
			t.Fatalf("%s: read: %v", tc.name, err)
		}
		if tc.serve {
			c.DeferServe(OpRead, 7, 1, nil, nil)
		}
		for lvl := int(leaf); lvl >= 3; lvl-- {
			if _, err := c.WriteLevel(label, uint(lvl)); err != nil {
				t.Fatalf("%s: write: %v", tc.name, err)
			}
		}
		err = c.CommitAccess(tc.deps)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: commit error %v, want %q", tc.name, err, tc.want)
		}
		if c.Err() == nil {
			t.Fatalf("%s: divergence did not fail-stop the controller", tc.name)
		}
		if err := c.StopPipeline(); err == nil {
			t.Fatalf("%s: StopPipeline cleared a fail-stopped controller", tc.name)
		}
	}

	// The well-formed footprint of the same recording commits cleanly.
	st, err := storage.NewMem(tr, geo, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(Config{Tree: tr, StashCapacity: 200, TrackData: true}, st)
	if err != nil {
		t.Fatal(err)
	}
	startPipeline(t, c, 2)
	if _, err := c.ReadRange(label, 2, nil); err != nil {
		t.Fatal(err)
	}
	c.DeferServe(OpRead, 7, 1, nil, nil)
	for lvl := int(leaf); lvl >= 3; lvl-- {
		if _, err := c.WriteLevel(label, uint(lvl)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CommitAccess(AccessDeps{Label: label, ReadFrom: 2, Stop: 3}); err != nil {
		t.Fatalf("well-formed commit refused: %v", err)
	}
	if err := c.StopPipeline(); err != nil {
		t.Fatalf("stop after a well-formed access: %v", err)
	}
}
