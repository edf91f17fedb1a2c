package fork

import (
	"bytes"
	"slices"
	"testing"

	"forkoram/internal/block"
	"forkoram/internal/pathoram"
	"forkoram/internal/posmap"
	"forkoram/internal/rng"
	"forkoram/internal/storage"
	"forkoram/internal/tree"
)

type env struct {
	t     *testing.T
	tr    tree.Tree
	eng   *Engine
	ctl   *pathoram.Controller
	store storage.Backend
	pos   *posmap.Map
	outs  map[uint64][]byte // last served payload per item ID
	next  uint64
}

func newEnv(t *testing.T, leafLevel uint, cfg Config) *env {
	t.Helper()
	tr := tree.MustNew(leafLevel)
	store, err := storage.NewMem(tr, block.Geometry{Z: 4, PayloadSize: 8}, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := pathoram.NewController(pathoram.Config{Tree: tr, StashCapacity: 500, TrackData: true}, store)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg, ctl, rng.New(1234))
	if err != nil {
		t.Fatal(err)
	}
	return &env{t: t, tr: tr, eng: eng, ctl: ctl, store: store,
		pos: posmap.New(tr, rng.New(4321)), outs: map[uint64][]byte{}}
}

// item builds a real request for addr with the posmap oracle, whose Serve
// performs the controller-side fetch.
func (v *env) item(op pathoram.Op, addr uint64, data []byte) *Item {
	old, _, next := v.pos.Remap(addr)
	v.next++
	id := v.next
	it := &Item{ID: id, Addr: addr, OldLabel: old, NewLabel: next}
	it.Serve = func() error {
		out, err := v.ctl.FetchBlock(op, addr, next, data)
		if err != nil {
			return err
		}
		v.outs[id] = out
		return nil
	}
	return it
}

func (v *env) enqueue(it *Item) {
	if !v.eng.Enqueue(it) {
		v.t.Fatalf("enqueue refused for item %d", it.ID)
	}
}

// drain runs accesses until no real requests remain queued or pending.
func (v *env) drain() {
	for i := 0; i < 10000; i++ {
		if v.eng.RealQueued() == 0 && (v.eng.pending == nil || !v.eng.pending.real()) {
			return
		}
		if _, err := v.eng.Run(); err != nil {
			v.t.Fatal(err)
		}
	}
	v.t.Fatal("drain did not converge")
}

func defaultCfg(q int) Config {
	// Age threshold must comfortably exceed the saturated queue residence
	// time (~q accesses) or starvation promotion degenerates the
	// scheduler into FIFO.
	return Config{QueueSize: q, AgeThreshold: 16 * q, MergeEnabled: true, DummyReplaceEnabled: true}
}

func pay(b byte) []byte { return []byte{b, b, b, b, b, b, b, b} }

func TestConfigValidate(t *testing.T) {
	if err := (Config{QueueSize: 0, AgeThreshold: 1}).Validate(); err == nil {
		t.Fatal("queue size 0 accepted")
	}
	if err := (Config{QueueSize: 1, AgeThreshold: 0}).Validate(); err == nil {
		t.Fatal("age threshold 0 accepted")
	}
}

func TestQueueAlwaysFull(t *testing.T) {
	v := newEnv(t, 6, defaultCfg(8))
	check := func() {
		if len(v.eng.queue) != 8 {
			t.Fatalf("queue size %d want 8", len(v.eng.queue))
		}
	}
	check()
	v.enqueue(v.item(pathoram.OpRead, 1, nil))
	check()
	for i := 0; i < 20; i++ {
		if _, err := v.eng.Run(); err != nil {
			t.Fatal(err)
		}
		check()
	}
}

func TestDummyAccessesWhenIdle(t *testing.T) {
	v := newEnv(t, 6, defaultCfg(4))
	for i := 0; i < 10; i++ {
		a, err := v.eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !a.Dummy() {
			t.Fatal("idle engine produced a real access")
		}
	}
	st := v.eng.Stats()
	if st.DummyAccesses != 10 || st.RealAccesses != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestForkShapeInvariant(t *testing.T) {
	// The defining property of Fork Path: access i reads exactly the part
	// of path-i not overlapped with path-(i-1), and writes exactly the
	// part not overlapped with path-(i+1), leaf-to-root.
	v := newEnv(t, 8, defaultCfg(8))
	r := rng.New(9)
	var accs []*Access
	for i := 0; i < 120; i++ {
		if r.Float64() < 0.5 && v.eng.CanEnqueue() {
			v.enqueue(v.item(pathoram.OpWrite, r.Uint64n(64), pay(byte(i))))
		}
		a, err := v.eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		// The engine recycles its Access record: snapshot it.
		accs = append(accs, &Access{
			Label: a.Label, Item: a.Item,
			ReadNodes:  append([]tree.Node(nil), a.ReadNodes...),
			WriteNodes: append([]tree.Node(nil), a.WriteNodes...),
		})
	}
	for i, a := range accs {
		readFrom := uint(0)
		if i > 0 {
			readFrom = v.tr.Overlap(accs[i-1].Label, a.Label)
		}
		wantRead := v.tr.PathSuffix(a.Label, readFrom-1, nil)
		if readFrom == 0 {
			wantRead = v.tr.Path(a.Label, nil)
		}
		if len(wantRead) != len(a.ReadNodes) {
			t.Fatalf("access %d: read %d nodes want %d", i, len(a.ReadNodes), len(wantRead))
		}
		for j := range wantRead {
			if wantRead[j] != a.ReadNodes[j] {
				t.Fatalf("access %d: read nodes mismatch", i)
			}
		}
		if i+1 < len(accs) {
			stop := v.tr.Overlap(a.Label, accs[i+1].Label)
			wantLen := int(v.tr.Levels()) - int(stop)
			if len(a.WriteNodes) != wantLen {
				t.Fatalf("access %d: wrote %d buckets want %d (stop %d)",
					i, len(a.WriteNodes), wantLen, stop)
			}
			// Leaf-to-root order, all below the fork point.
			for j, n := range a.WriteNodes {
				wantLvl := v.tr.LeafLevel() - uint(j)
				if v.tr.Level(n) != wantLvl {
					t.Fatalf("access %d write %d: level %d want %d", i, j, v.tr.Level(n), wantLvl)
				}
				if !v.tr.OnPath(a.Label, n) {
					t.Fatalf("access %d: wrote node off its path", i)
				}
			}
		}
	}
}

func TestSchedulingPicksMaxOverlapFigure6(t *testing.T) {
	// Figure 6: current request accesses path-1; pending requests target
	// path-4 and path-0 in an L=3 tree. path-0 overlaps path-1 in 3
	// buckets vs 1 for path-4, so path-0 must be scheduled next.
	v := newEnv(t, 3, Config{QueueSize: 4, AgeThreshold: 100, MergeEnabled: true})
	// Force known labels through the oracle by setting them explicitly.
	mk := func(addr uint64, label tree.Label) *Item {
		if err := v.pos.Set(addr, label); err != nil {
			t.Fatal(err)
		}
		old, _, next := v.pos.Remap(addr)
		return &Item{ID: addr, Addr: addr, OldLabel: old, NewLabel: next}
	}
	v.enqueue(mk(100, 1))
	a1, err := v.eng.Begin() // current = path-1 (only real request)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Label != 1 {
		t.Fatalf("current label %d want 1", a1.Label)
	}
	// Now stage path-4 and path-0 and let the engine reschedule: the
	// pending chosen during Begin was a dummy; both reals arrive during
	// the (not yet started) write phase, so replacement is allowed.
	v.enqueue(mk(101, 4))
	v.enqueue(mk(102, 0))
	for {
		_, _, done, err := v.eng.WriteStep(a1)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if err := v.eng.Finish(a1); err != nil {
		t.Fatal(err)
	}
	a2, err := v.eng.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if a2.Label != 0 {
		t.Fatalf("scheduled label %d want 0 (max overlap with path-1)", a2.Label)
	}
}

func TestReadYourWritesUnderReordering(t *testing.T) {
	v := newEnv(t, 7, defaultCfg(8))
	r := rng.New(77)
	shadow := map[uint64][]byte{}
	type expect struct {
		id   uint64
		want []byte
	}
	var expects []expect
	for round := 0; round < 400; round++ {
		for k := 0; k < 2 && v.eng.CanEnqueue(); k++ {
			addr := r.Uint64n(40)
			if r.Float64() < 0.5 {
				d := pay(byte(r.Uint64()))
				v.enqueue(v.item(pathoram.OpWrite, addr, d))
				shadow[addr] = d
			} else {
				it := v.item(pathoram.OpRead, addr, nil)
				want := shadow[addr]
				if want == nil {
					want = make([]byte, 8)
				}
				v.enqueue(it)
				expects = append(expects, expect{id: it.ID, want: want})
			}
		}
		if _, err := v.eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	v.drain()
	for _, ex := range expects {
		got, ok := v.outs[ex.id]
		if !ok {
			t.Fatalf("read %d never served", ex.id)
		}
		if !bytes.Equal(got, ex.want) {
			t.Fatalf("read %d: got %x want %x", ex.id, got, ex.want)
		}
	}
}

func TestInvariantAtQuiescence(t *testing.T) {
	v := newEnv(t, 7, defaultCfg(8))
	r := rng.New(3)
	for round := 0; round < 200; round++ {
		if v.eng.CanEnqueue() {
			v.enqueue(v.item(pathoram.OpWrite, r.Uint64n(50), pay(byte(round))))
		}
		if _, err := v.eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	v.drain()
	err := pathoram.CheckInvariant(v.tr, v.store, v.ctl.Stash(),
		func(f func(addr uint64, label tree.Label)) {
			v.pos.ForEach(f)
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPerAddressOrdering(t *testing.T) {
	v := newEnv(t, 6, defaultCfg(8))
	// Three writes to the same address must apply in order even though
	// the scheduler is free to reorder across addresses.
	v.enqueue(v.item(pathoram.OpWrite, 5, pay(1)))
	v.enqueue(v.item(pathoram.OpWrite, 5, pay(2)))
	v.enqueue(v.item(pathoram.OpWrite, 5, pay(3)))
	v.enqueue(v.item(pathoram.OpWrite, 9, pay(9)))
	v.drain()
	final := v.item(pathoram.OpRead, 5, nil)
	v.enqueue(final)
	v.drain()
	if got := v.outs[final.ID]; !bytes.Equal(got, pay(3)) {
		t.Fatalf("final read %x want %x", got, pay(3))
	}
}

// TestSwapKeepsPerAddressOrder admits requests while an access is in
// flight: A replaces the pending dummy, B (A's address) queues behind
// it, and C (on the in-flight access's own leaf) swaps A back into the
// queue. A must keep its sequence number, or B would become the older
// request for the address and be served first.
func TestSwapKeepsPerAddressOrder(t *testing.T) {
	v := newEnv(t, 6, defaultCfg(8))
	a, err := v.eng.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if !a.Dummy() || v.eng.PendingReal() {
		t.Fatal("setup: want a dummy access with a dummy pending")
	}
	var order []uint64
	logged := func(it *Item) *Item {
		serve := it.Serve
		it.Serve = func() error {
			order = append(order, it.ID)
			return serve()
		}
		return it
	}
	// A sits off the current leaf (overlap L); C sits on it (overlap L+1).
	if err := v.pos.Set(7, a.Label^1); err != nil {
		t.Fatal(err)
	}
	if err := v.pos.Set(9, a.Label); err != nil {
		t.Fatal(err)
	}
	itA := logged(v.item(pathoram.OpWrite, 7, pay(1)))
	v.enqueue(itA)
	if v.eng.pending.item != itA {
		t.Fatal("A did not replace the pending dummy")
	}
	itB := logged(v.item(pathoram.OpWrite, 7, pay(2)))
	v.enqueue(itB)
	itC := logged(v.item(pathoram.OpWrite, 9, pay(3)))
	v.enqueue(itC)
	if v.eng.pending.item != itC {
		t.Fatal("C did not swap with the pending A")
	}
	for {
		_, _, done, err := v.eng.WriteStep(a)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if err := v.eng.Finish(a); err != nil {
		t.Fatal(err)
	}
	v.drain()
	if want := []uint64{itC.ID, itA.ID, itB.ID}; !slices.Equal(order, want) {
		t.Fatalf("serve order %v, want C, A, B = %v", order, want)
	}
	final := v.item(pathoram.OpRead, 7, nil)
	v.enqueue(final)
	v.drain()
	if got := v.outs[final.ID]; !bytes.Equal(got, pay(2)) {
		t.Fatalf("address 7 reads %x, want the later write %x", got, pay(2))
	}
}

func TestDummyReplacementLegality(t *testing.T) {
	// Figure 5: after some refill progress, an incoming real request can
	// replace the pending dummy only if the crossing bucket of the current
	// and incoming paths has not been written yet.
	v := newEnv(t, 3, Config{QueueSize: 2, AgeThreshold: 100, MergeEnabled: true, DummyReplaceEnabled: true})
	// Bootstrap one access so prev exists; then start a dummy access.
	if _, err := v.eng.Run(); err != nil {
		t.Fatal(err)
	}
	a, err := v.eng.Begin()
	if err != nil {
		t.Fatal(err)
	}
	cur := a.Label
	// Take write steps until only levels {0,1} remain unwritten.
	steps := 0
	for v.eng.current.writeLevel > 1 {
		if _, _, done, err := v.eng.WriteStep(a); err != nil {
			t.Fatal(err)
		} else if done {
			break
		}
		steps++
	}
	if v.eng.current.writeLevel != 1 {
		t.Skipf("refill stopped early at level %d (high-overlap pending); scenario not reachable this seed", v.eng.current.writeLevel)
	}
	// Incoming request crossing the current path at the leaf level (same
	// label) would need the whole path unwritten: LCA level 3 > 1 -> must
	// NOT replace the pending.
	sameHalf := cur // identical label: crossing at leaf level
	if err := v.pos.Set(200, sameHalf); err != nil {
		t.Fatal(err)
	}
	old, _, next := v.pos.Remap(200)
	deep := &Item{ID: 200, Addr: 200, OldLabel: old, NewLabel: next}
	wasPending := *v.eng.pending
	v.enqueue(deep)
	if v.eng.pending.real() && v.eng.pending.item == deep {
		t.Fatal("illegal replacement: crossing bucket already written")
	}
	if v.eng.pending.label != wasPending.label {
		t.Fatal("pending changed despite illegal replacement")
	}
	// Incoming request crossing at the root (opposite half of the tree):
	// LCA level 0 <= writeLevel 1 -> replacement allowed.
	opposite := cur ^ 0x4 // flip the top label bit of an L=3 tree
	if err := v.pos.Set(201, opposite); err != nil {
		t.Fatal(err)
	}
	old2, _, next2 := v.pos.Remap(201)
	shallow := &Item{ID: 201, Addr: 201, OldLabel: old2, NewLabel: next2}
	if !v.eng.pending.real() {
		v.enqueue(shallow)
		if !v.eng.pending.real() || v.eng.pending.item != shallow {
			t.Fatal("legal replacement refused")
		}
	}
}

func TestNoReplacementAfterFinish(t *testing.T) {
	v := newEnv(t, 4, Config{QueueSize: 2, AgeThreshold: 100, MergeEnabled: true, DummyReplaceEnabled: true})
	a, err := v.eng.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, _, done, err := v.eng.WriteStep(a)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if err := v.eng.Finish(a); err != nil {
		t.Fatal(err)
	}
	if !v.eng.pending.real() {
		prev := v.eng.pending.label
		it := v.item(pathoram.OpRead, 7, nil)
		v.enqueue(it)
		if v.eng.pending.real() || v.eng.pending.label != prev {
			t.Fatal("pending replaced after fork point was revealed (case 1)")
		}
	}
}

// TestFullOverlapPendingReplaceable: a pending dummy that carries the
// current access's own label puts the fork point below the leaf, so the
// refill writes nothing. Until a WriteStep has run nothing is committed
// and a real request replaces the dummy; once one has (Figure 5 case 1)
// the pending entry is committed and the request queues.
func TestFullOverlapPendingReplaceable(t *testing.T) {
	for _, stepped := range []bool{false, true} {
		v := newEnv(t, 4, Config{QueueSize: 2, AgeThreshold: 100, MergeEnabled: true, DummyReplaceEnabled: true})
		a, err := v.eng.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if v.eng.pending == nil || v.eng.pending.real() {
			t.Fatal("idle engine scheduled no pending dummy")
		}
		v.eng.pending.label = a.Label
		if stepped {
			if _, wrote, done, err := v.eng.WriteStep(a); err != nil || wrote || !done {
				t.Fatalf("full-overlap WriteStep: wrote %v done %v err %v", wrote, done, err)
			}
		}
		it := v.item(pathoram.OpRead, 7, nil)
		v.enqueue(it)
		if replaced := v.eng.pending.item == it; replaced == stepped {
			t.Fatalf("after WriteStep %v: pending replaced %v", stepped, replaced)
		}
		if err := v.eng.Complete(a); err != nil {
			t.Fatal(err)
		}
		v.drain()
		if !bytes.Equal(v.outs[it.ID], make([]byte, 8)) {
			t.Fatalf("after WriteStep %v: read of unwritten address 7 returned %x", stepped, v.outs[it.ID])
		}
	}
}

func TestMergeDisabledFullPaths(t *testing.T) {
	v := newEnv(t, 6, Config{QueueSize: 4, AgeThreshold: 100, MergeEnabled: false})
	for i := 0; i < 10; i++ {
		a, err := v.eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(a.ReadNodes) != 7 || len(a.WriteNodes) != 7 {
			t.Fatalf("merge-disabled access %d: %d/%d buckets want 7/7",
				i, len(a.ReadNodes), len(a.WriteNodes))
		}
	}
}

func TestStarvationPromotion(t *testing.T) {
	// White-box: an entry whose age reaches the threshold is picked even
	// when another entry overlaps more.
	v := newEnv(t, 8, Config{QueueSize: 4, AgeThreshold: 3, MergeEnabled: true})
	e := v.eng
	e.prevLabel, e.havePrev = 0, true
	starvedItem := &Item{ID: 1, Addr: 1, OldLabel: 255, NewLabel: 10} // far from 0
	e.queue = []*entry{
		{label: 255, item: starvedItem, age: 3, seq: 1},
		{label: 0, seq: 2}, // perfect overlap dummy
		{label: 1, seq: 3},
		{label: 2, seq: 4},
	}
	got := e.pickPending(0)
	if got.item != starvedItem {
		t.Fatalf("starved entry not promoted; picked label %d", got.label)
	}
}

func TestTieBreakPrefersReal(t *testing.T) {
	v := newEnv(t, 8, Config{QueueSize: 2, AgeThreshold: 100, MergeEnabled: true})
	e := v.eng
	it := &Item{ID: 1, Addr: 1, OldLabel: 100, NewLabel: 5}
	e.queue = []*entry{
		{label: 100, seq: 1},           // dummy, same overlap
		{label: 100, item: it, seq: 2}, // real, same overlap
	}
	if got := e.pickPending(100); got.item != it {
		t.Fatal("tie not broken in favor of the real request")
	}
}

func TestBeginWhileInFlightRejected(t *testing.T) {
	v := newEnv(t, 4, defaultCfg(2))
	if _, err := v.eng.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := v.eng.Begin(); err == nil {
		t.Fatal("second Begin accepted while access in flight")
	}
}

func TestFinishBeforeWriteRejected(t *testing.T) {
	v := newEnv(t, 4, defaultCfg(2))
	a, err := v.eng.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := v.eng.Finish(a); err == nil {
		// Only an error if the write set is non-empty; with a pending
		// overlapping fully, the write phase may be legitimately empty.
		stop := v.eng.stopLevel()
		if int(stop) <= a.writeLevel {
			t.Fatal("Finish accepted before write phase completed")
		}
	}
}

func TestMergedPathShorterOnAverage(t *testing.T) {
	// The headline effect: with a queue of 64 on a deep tree, the average
	// accessed path segment must be clearly shorter than the full path.
	v := newEnv(t, 14, defaultCfg(64))
	r := rng.New(5)
	totalRead, n := 0, 0
	for i := 0; i < 800; i++ {
		for k := 0; k < 4 && v.eng.CanEnqueue(); k++ {
			v.enqueue(v.item(pathoram.OpRead, r.Uint64n(4000), nil))
		}
		a, err := v.eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if i > 50 { // skip warmup
			totalRead += len(a.ReadNodes)
			n++
		}
	}
	mean := float64(totalRead) / float64(n)
	full := float64(v.tr.Levels())
	if mean > full-2.5 {
		t.Fatalf("mean read segment %.2f, expected well below %v", mean, full)
	}
}
