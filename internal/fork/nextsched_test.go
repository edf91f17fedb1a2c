package fork

import (
	"testing"

	"forkoram/internal/pathoram"
	"forkoram/internal/rng"
)

// TestNextScheduledMatchesBegin runs a mixed real/dummy workload access
// by access and checks, in every Finish→Begin window, that NextScheduled
// predicts exactly the label and read level the following Begin uses —
// the contract a pipelined driver's prefetch depends on.
func TestNextScheduledMatchesBegin(t *testing.T) {
	v := newEnv(t, 6, Config{QueueSize: 6, AgeThreshold: 64, MergeEnabled: true, DummyReplaceEnabled: true})
	e := v.eng
	src := rng.New(77)

	if _, _, ok := e.NextScheduled(); ok {
		t.Fatal("NextScheduled ok before any access (nothing committed yet)")
	}

	predicted := 0
	for step := 0; step < 300; step++ {
		if src.Uint64n(100) < 60 && e.CanEnqueue() {
			v.enqueue(v.item(pathoram.OpWrite, src.Uint64n(40), []byte("payload!")))
		}
		label, from, ok := e.NextScheduled()

		a, err := e.Begin()
		if err != nil {
			t.Fatalf("step %d: Begin: %v", step, err)
		}
		if ok {
			predicted++
			if a.Label != label {
				t.Fatalf("step %d: NextScheduled label %d, Begin ran %d", step, label, a.Label)
			}
			wantReads := int(v.tr.LeafLevel()) - int(from) + 1
			if from > v.tr.LeafLevel() {
				wantReads = 0
			}
			if len(a.ReadNodes) != wantReads {
				t.Fatalf("step %d: NextScheduled from-level %d predicts %d reads, Begin read %d",
					step, from, wantReads, len(a.ReadNodes))
			}
			if wantReads > 0 && a.ReadNodes[0] != v.tr.NodeAt(label, from) {
				t.Fatalf("step %d: first read node %d, want node at (label %d, level %d)",
					step, a.ReadNodes[0], label, from)
			}
		}
		if _, _, mid := e.NextScheduled(); mid {
			t.Fatalf("step %d: NextScheduled ok while an access is in flight", step)
		}
		for {
			_, _, done, err := e.WriteStep(a)
			if err != nil {
				t.Fatalf("step %d: WriteStep: %v", step, err)
			}
			if done {
				break
			}
		}
		if err := e.Finish(a); err != nil {
			t.Fatalf("step %d: Finish: %v", step, err)
		}
	}
	// After the warm-up access every window has a committed pending; the
	// prediction must be available essentially always.
	if predicted < 250 {
		t.Fatalf("NextScheduled predicted only %d/300 windows", predicted)
	}
}
