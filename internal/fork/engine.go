package fork

import (
	"fmt"

	"forkoram/internal/pathoram"
	"forkoram/internal/rng"
	"forkoram/internal/tree"
)

// Item is one real ORAM request admitted to the label queue: a unified
// tree block to fetch along OldLabel and re-map to NewLabel. Serve is the
// stash-side work (fetch/mutate/relabel) executed right after the read
// phase; for hierarchical ORAM it closes over recursion.ServeBlock.
type Item struct {
	ID       uint64
	Addr     uint64
	OldLabel tree.Label
	NewLabel tree.Label
	// Key is the per-address ordering key; zero means Addr. Super-block
	// configurations set it to the group base address so that all
	// requests sharing one label chain stay ordered.
	Key   uint64
	Serve func() error
}

// OrderKey returns the effective ordering key of an item.
func (it *Item) OrderKey() uint64 {
	if it.Key != 0 {
		return it.Key
	}
	return it.Addr
}

// entry is one label-queue slot.
type entry struct {
	label tree.Label
	item  *Item // nil for dummy entries
	age   int
	seq   uint64
}

func (e *entry) real() bool { return e.item != nil }

// Config parameterizes the engine.
type Config struct {
	// QueueSize is the label queue capacity Q (paper default 64).
	// QueueSize 1 degenerates scheduling: pure path merging.
	QueueSize int
	// AgeThreshold promotes an entry to mandatory-next once it has been
	// passed over this many times (starvation avoidance, §4).
	AgeThreshold int
	// MergeEnabled disables path merging when false (full paths are read
	// and written; used for the traditional-ORAM baseline and ablations).
	MergeEnabled bool
	// DummyReplaceEnabled enables §3.3 dummy request replacing.
	DummyReplaceEnabled bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.QueueSize < 1 {
		return fmt.Errorf("fork: queue size must be >= 1")
	}
	if c.AgeThreshold < 1 {
		return fmt.Errorf("fork: age threshold must be >= 1")
	}
	return nil
}

// Access is the in-flight state of one ORAM access produced by Begin and
// advanced by WriteStep. The exported fields describe what the bus
// reveals.
type Access struct {
	Label      tree.Label
	Item       *Item // nil for dummy accesses
	ReadNodes  []tree.Node
	WriteNodes []tree.Node

	writeLevel int  // next level to write (descending); -1 when finished
	inWrite    bool // at least one WriteStep taken, even one that wrote nothing
	finished   bool
}

// Dummy reports whether the access serves no real request.
func (a *Access) Dummy() bool { return a.Item == nil }

// Engine is the Fork Path ORAM engine: label queue, scheduler and
// merging state machine over a pathoram.Controller.
type Engine struct {
	cfg Config
	ctl *pathoram.Controller
	tr  tree.Tree
	rnd *rng.Source

	queue   []*entry
	pending *entry // scheduled next request (the merge target)
	// pendingRevealed is set once the current access's write phase has
	// finished, fixing the fork point: the pending request is then
	// committed and can no longer be swapped or replaced.
	pendingRevealed bool

	current   *Access
	prevLabel tree.Label
	havePrev  bool

	// acc is the reusable Access handed out by Begin: one access is in
	// flight at a time, so the record (and its node slices) is recycled.
	// It is valid until the next Begin.
	acc Access
	// free recycles label-queue entries: the queue holds a constant Q
	// entries plus one in flight, so after warmup no entry is allocated.
	free []*entry

	seq uint64

	hasCurrent    bool
	dummiesIssued uint64
	realsIssued   uint64

	// Scheduler diagnostics.
	pickCount    uint64
	eligibleSum  uint64
	starvedPicks uint64
	blockedSum   uint64
}

// NewEngine creates an engine over ctl. rnd supplies dummy labels.
func NewEngine(cfg Config, ctl *pathoram.Controller, rnd *rng.Source) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, ctl: ctl, tr: ctl.Tree(), rnd: rnd}
	e.fill()
	return e, nil
}

// randomLabel draws a uniform dummy label.
func (e *Engine) randomLabel() tree.Label {
	return tree.Label(e.rnd.Uint64n(e.tr.Leaves()))
}

// newEntry takes an entry off the freelist (or allocates one) and
// initializes it with the next sequence number.
func (e *Engine) newEntry(label tree.Label, item *Item) *entry {
	e.seq++
	var en *entry
	if n := len(e.free); n > 0 {
		en = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		en = new(entry)
	}
	*en = entry{label: label, item: item, seq: e.seq}
	return en
}

// release returns a consumed entry to the freelist.
func (e *Engine) release(en *entry) {
	en.item = nil
	e.free = append(e.free, en)
}

// fill pads the queue with dummy entries up to Q, keeping its externally
// visible size constant so queue occupancy never reflects LLC intensity
// (§3.4, Figure 7).
func (e *Engine) fill() {
	for len(e.queue) < e.cfg.QueueSize {
		e.queue = append(e.queue, e.newEntry(e.randomLabel(), nil))
	}
}

// RealQueued returns the number of real requests in the label queue
// (excluding pending/current). Not observable by the adversary.
func (e *Engine) RealQueued() int {
	n := 0
	for _, en := range e.queue {
		if en.real() {
			n++
		}
	}
	return n
}

// CanEnqueue reports whether a real item can currently be admitted.
func (e *Engine) CanEnqueue() bool {
	if e.pending != nil && !e.pending.real() && e.mayReplacePending(0) {
		return true
	}
	for _, en := range e.queue {
		if !en.real() {
			return true
		}
	}
	return false
}

// mayReplacePending reports whether the pending entry may still be swapped
// for a real request whose path overlaps the current path with LCA level
// lcaLevel, per Figure 5: the refill must not be finished (case 1) and the
// crossing bucket of the current path and the *incoming* path must not
// have been written yet (case 2). Before the write phase starts everything
// is still invisible, so replacement is always allowed — even when the
// pending dummy shares the current access's whole path, so that its
// refill would stop before writing anything.
func (e *Engine) mayReplacePending(lcaLevel uint) bool {
	if e.pendingRevealed {
		return false
	}
	if e.current == nil {
		return true
	}
	if e.current.finished {
		return false
	}
	if !e.current.inWrite {
		return true
	}
	// Once the refill has reached its fork point the pending request is
	// committed (Figure 5 case 1) even if Finish has not been called yet —
	// and a replacement demanding *more* writes after the refill stopped
	// is equally impossible.
	if e.current.writeLevel < int(e.stopLevel()) {
		return false
	}
	// Written levels are those strictly above writeLevel... the refill
	// proceeds leaf->root, so levels > writeLevel are done. The crossing
	// bucket at lcaLevel must still be unwritten: lcaLevel <= writeLevel.
	return int(lcaLevel) <= e.current.writeLevel
}

// Enqueue admits a real ORAM request. Per Algorithm 1 it may
//
//  1. replace the pending dummy (dummy request replacing, §3.3) when the
//     Figure 5 timing cases allow it,
//  2. swap with a real pending that overlaps the current path less, when
//     the pending is not yet merged (the displaced pending re-enters the
//     queue), or
//  3. replace the first dummy entry in the queue.
//
// It returns false (backpressure) when the queue holds no dummy to
// replace; the caller keeps the request in the address queue.
func (e *Engine) Enqueue(it *Item) bool {
	if e.cfg.DummyReplaceEnabled && e.pending != nil && e.hasCurrent {
		lca := e.tr.LCALevel(e.current.Label, it.OldLabel)
		if e.mayReplacePending(lca) && e.addrOrderAllows(it.OrderKey(), ^uint64(0)) {
			if !e.pending.real() {
				// Case 3 of Figure 5: the pending dummy vanishes, the real
				// request takes its place.
				e.pending.label = it.OldLabel
				e.pending.item = it
				e.pending.age = 0
				return true
			}
			// Real pending: swap only if the incoming request overlaps the
			// current path strictly more, and a dummy slot exists for the
			// displaced pending. The displaced request re-enters the queue
			// in the discarded dummy's slot (reused in place) keeping its
			// sequence number, so a same-key request queued after it stays
			// younger (per-address program order); the incoming request
			// takes a fresh one.
			if e.tr.Overlap(e.current.Label, it.OldLabel) > e.tr.Overlap(e.current.Label, e.pending.label) {
				if di := e.firstDummy(); di >= 0 {
					d := e.queue[di]
					*d = *e.pending
					e.seq++
					e.pending.label, e.pending.item, e.pending.age, e.pending.seq = it.OldLabel, it, 0, e.seq
					return true
				}
			}
		}
	}
	if di := e.firstDummy(); di >= 0 {
		d := e.queue[di]
		e.seq++
		d.label, d.item, d.age, d.seq = it.OldLabel, it, 0, e.seq
		return true
	}
	return false
}

func (e *Engine) firstDummy() int {
	for i, en := range e.queue {
		if !en.real() {
			return i
		}
	}
	return -1
}

// addrOrderAllows reports whether a real request with the given ordering
// key and sequence number may be issued now: no older real request with
// the same key may still be waiting in the queue or in flight. This preserves
// program-order semantics per block without constraining unrelated
// addresses (hazards across *program* addresses were already resolved in
// the address queue; this guards position-map blocks shared by unrelated
// program addresses).
func (e *Engine) addrOrderAllows(key uint64, seq uint64) bool {
	if e.hasCurrent && e.current.Item != nil && e.current.Item.OrderKey() == key && !e.current.finished {
		return false
	}
	if e.pending != nil && e.pending.real() && e.pending.item.OrderKey() == key && e.pending.seq < seq {
		return false
	}
	for _, en := range e.queue {
		if en.real() && en.item.OrderKey() == key && en.seq < seq {
			return false
		}
	}
	return true
}

// pickPending selects the next request among queue entries: the eligible
// entry with the highest overlap degree with label cur; ties prefer real
// requests, then older entries. An entry whose age reached the threshold
// is scheduled first regardless of overlap (starvation avoidance). The
// chosen entry is removed and the queue refilled with a fresh dummy.
func (e *Engine) pickPending(cur tree.Label) *entry {
	best := -1
	var bestOvl uint
	starved := -1
	e.pickCount++
	for i, en := range e.queue {
		if en.real() && !e.addrOrderAllows(en.item.OrderKey(), en.seq) {
			e.blockedSum++
			continue
		}
		e.eligibleSum++
		if en.real() && en.age >= e.cfg.AgeThreshold {
			if starved < 0 || en.seq < e.queue[starved].seq {
				starved = i
			}
		}
		ovl := e.tr.Overlap(cur, en.label)
		if best < 0 {
			best, bestOvl = i, ovl
			continue
		}
		b := e.queue[best]
		switch {
		case ovl > bestOvl:
			best, bestOvl = i, ovl
		case ovl == bestOvl && en.real() && !b.real():
			best = i
		case ovl == bestOvl && en.real() == b.real() && en.seq < b.seq:
			best = i
		}
	}
	if starved >= 0 {
		if starved != best {
			e.starvedPicks++
		}
		best = starved
	}
	if best < 0 {
		// Every entry is order-blocked (only possible when the queue is
		// saturated with requests to one address); fall back to a dummy.
		return e.newEntry(e.randomLabel(), nil)
	}
	chosen := e.queue[best]
	e.queue = append(e.queue[:best], e.queue[best+1:]...)
	// Only real requests age: a dummy cannot starve anyone, and promoting
	// dummies would sacrifice overlap for nothing.
	for _, en := range e.queue {
		if en.real() {
			en.age++
		}
	}
	e.fill()
	return chosen
}

// Begin starts the next ORAM access: the previously scheduled pending
// entry becomes current (on the very first access, or when no pending
// exists, one is picked directly), its non-overlapped path segment is read
// into the stash, the real request (if any) is served, and a new pending
// is scheduled for merging with this access's write phase.
//
// The returned Access and its node slices are valid until the next Begin:
// only one access is in flight at a time, so the engine recycles one
// record. Callers that keep node lists across accesses (e.g. an adversary
// monitor) must copy them.
func (e *Engine) Begin() (*Access, error) {
	if e.hasCurrent && !e.current.finished {
		return nil, fmt.Errorf("fork: Begin while an access is in flight")
	}
	cur := e.pending
	if cur == nil {
		cur = e.pickPending(e.prevHint())
	}
	e.pending = nil
	e.pendingRevealed = false

	// Recycle the single in-flight Access record and its node slices; the
	// previous record is invalid from here on (Begin's documented contract).
	acc := &e.acc
	*acc = Access{
		Label: cur.label, Item: cur.item,
		ReadNodes:  acc.ReadNodes[:0],
		WriteNodes: acc.WriteNodes[:0],
		writeLevel: int(e.tr.LeafLevel()),
	}
	e.current = acc
	e.hasCurrent = true
	if cur.real() {
		e.realsIssued++
	} else {
		e.dummiesIssued++
	}

	// Read phase: skip the fork handle shared with the previous access.
	readFrom := uint(0)
	if e.cfg.MergeEnabled && e.havePrev {
		readFrom = e.tr.Overlap(e.prevLabel, cur.label)
	}
	var err error
	if readFrom <= e.tr.LeafLevel() {
		acc.ReadNodes, err = e.ctl.ReadRange(cur.label, readFrom, acc.ReadNodes)
		if err != nil {
			return nil, err
		}
	}
	// Serve the real request from the stash.
	if cur.real() && cur.item.Serve != nil {
		if err := cur.item.Serve(); err != nil {
			return nil, err
		}
	}
	// Schedule the merge target for this access's write phase.
	e.pending = e.pickPending(cur.label)
	// cur's fields now live in acc; the queue slot cycles back for reuse.
	e.release(cur)
	return acc, nil
}

// prevHint returns the label to maximize overlap against when no current
// access exists yet (startup): the previous completed label, or an
// arbitrary label when none exists.
func (e *Engine) prevHint() tree.Label {
	if e.havePrev {
		return e.prevLabel
	}
	return 0
}

// stopLevel returns the first level NOT written by the current access: the
// overlap with the pending (next) path, per §3.2 Step 5. Without merging
// the whole path is rewritten.
func (e *Engine) stopLevel() uint {
	if !e.cfg.MergeEnabled || e.pending == nil {
		return 0
	}
	return e.tr.Overlap(e.current.Label, e.pending.label)
}

// WriteStep writes the next bucket of the current access's refill
// (leaf-to-root). wrote reports whether a bucket was written (false when
// the refill had already reached its fork point) and done whether the
// write phase is complete. Call Finish once done.
func (e *Engine) WriteStep(a *Access) (n tree.Node, wrote, done bool, err error) {
	if a != e.current || a.finished {
		return 0, false, true, fmt.Errorf("fork: WriteStep on stale access")
	}
	a.inWrite = true
	stop := int(e.stopLevel())
	if a.writeLevel < stop {
		return 0, false, true, nil
	}
	n, err = e.ctl.WriteLevel(a.Label, uint(a.writeLevel))
	if err != nil {
		return 0, false, false, err
	}
	a.WriteNodes = append(a.WriteNodes, n)
	a.writeLevel--
	return n, true, a.writeLevel < int(e.stopLevel()), nil
}

// HasAddr reports whether a real request with the given ordering key
// (the unified address, or the super-block group key) is queued, pending,
// or currently in flight. The Step-1 stash shortcut must not fire for
// such keys (per-address ordering).
func (e *Engine) HasAddr(key uint64) bool {
	return !e.addrOrderAllows(key, ^uint64(0))
}

// PendingReal reports whether the scheduled next request is real.
func (e *Engine) PendingReal() bool {
	return e.pending != nil && e.pending.real()
}

// Finish completes the current access after its write phase is done: the
// fork point becomes visible, committing the pending request.
func (e *Engine) Finish(a *Access) error {
	if a != e.current {
		return fmt.Errorf("fork: Finish on stale access")
	}
	stop := int(e.stopLevel())
	if a.writeLevel >= stop {
		return fmt.Errorf("fork: Finish before write phase completed (level %d, stop %d)", a.writeLevel, stop)
	}
	a.finished = true
	e.pendingRevealed = true
	e.prevLabel = a.Label
	e.havePrev = true
	e.hasCurrent = false
	e.ctl.EndAccess()
	return nil
}

// Handle reports the fork handle the last finished access left on chip
// (§3.2): levels [0, levels) of label's path, the prefix it shares with
// the scheduled next access. Its refill stopped there, so every handle
// bucket was read into the stash and has not been rewritten since: its
// medium image holds only stale copies. Every bucket off the handle was
// last written by a refill. levels is 0 before the first access
// finishes and without merging. ok is false while an access is in
// flight, which has read buckets it has not yet rewritten.
func (e *Engine) Handle() (label tree.Label, levels uint, ok bool) {
	if e.hasCurrent {
		return 0, 0, false
	}
	if !e.havePrev {
		return 0, 0, true
	}
	return e.prevLabel, uint(e.acc.writeLevel + 1), true
}

// Run executes one whole access synchronously (read, serve, full refill).
// Convenience for functional use; the timing simulator drives the phases
// separately via Begin/WriteStep/Finish.
func (e *Engine) Run() (*Access, error) {
	a, err := e.Begin()
	if err != nil {
		return nil, err
	}
	if err := e.Complete(a); err != nil {
		return nil, err
	}
	return a, nil
}

// Complete runs a begun access's write phase down to its fork point with
// the pending entry (WriteStep until done), then finishes it.
func (e *Engine) Complete(a *Access) error {
	for {
		_, _, done, err := e.WriteStep(a)
		if err != nil {
			return err
		}
		if done {
			break
		}
	}
	return e.Finish(a)
}

// Stats reports issue counts and scheduler diagnostics.
type Stats struct {
	RealAccesses  uint64
	DummyAccesses uint64
	// MeanEligible is the average number of queue entries the scheduler
	// could choose among per pick (order-blocked entries excluded).
	MeanEligible float64
	// StarvedPicks counts picks forced by the aging threshold.
	StarvedPicks uint64
	// MeanBlocked is the average number of order-blocked entries per pick.
	MeanBlocked float64
}

// Stats returns cumulative counts of issued accesses.
func (e *Engine) Stats() Stats {
	s := Stats{RealAccesses: e.realsIssued, DummyAccesses: e.dummiesIssued,
		StarvedPicks: e.starvedPicks}
	if e.pickCount > 0 {
		s.MeanEligible = float64(e.eligibleSum) / float64(e.pickCount)
		s.MeanBlocked = float64(e.blockedSum) / float64(e.pickCount)
	}
	return s
}
