package pathoram

import (
	"fmt"
	"sync"
	"time"

	"forkoram/internal/block"
	"forkoram/internal/prof"
	"forkoram/internal/tree"
)

// This file is the concurrent serve/evict stage (DESIGN.md §15), the
// engine behind every pipelined session. The fork engine still runs
// serially on the sequencer goroutine and decides the whole schedule —
// labels, merge levels, dummy substitutions — ahead of execution, which
// is sound because no engine decision reads the stash: the engine's
// only controller calls are ReadRange, WriteLevel and EndAccess.
// What used to happen inline per access (fetch consume, stash puts,
// serve, eviction planning) is instead *recorded* into a ctask and
// executed later on a worker pool, out of order where the dependency
// tracker proves independence and in program order where it cannot.
//
// Ordering skeleton, per access (seq = program order):
//
//	seal(k)    happens-before  prefetch-issue(k+1)   [sequencer order]
//	resolve(k) happens-before  resolve(k+1)          [in-order resolution]
//	fetch(k)   happens-before  resolve(k)            [resolution gate]
//	execute(k) happens-before  retire(k)             [ROB head rule]
//
// Resolution walks tasks in seq order and computes dependency edges
// against every older unexecuted task; because it is gated on the
// task's own fetch completion, the full fetched-address set of every
// older task is known when edges are computed, and an older task's
// fetch is always complete before any younger task executes. Two tasks
// A (older) and B conflict — B must execute after A — iff any of:
//
//	Overlap(A.label, B.label) > min(rA, sA, rB, sB)
//	Overlap(λ, B.label) > sB   for any serve relabel λ of A
//	Overlap(λ, A.label) > sA   for any serve relabel λ of B
//	touched(A) ∩ touched(B) ≠ ∅
//
// where r is the first level read (L+1 if the read fully merged), s is
// the first level NOT written (L+1 if nothing was written), and
// touched(T) is T's served addresses plus every address its fetch
// brought in. Independent tasks' stash phases commute: neither fetches
// a bucket inside the other's eviction range (condition 1), neither
// relabels a block into the other's eviction range (conditions 2-3),
// and they share no block (condition 4) — so running them in either
// order under the stash lock produces the same stash, and the
// byte-identical-snapshot test pins exactly that.
//
// Storage-level hazards are separate from scheduler edges: queued maps
// each planned-but-unwritten node to the seqs that will write it, and a
// fetch for seq k waits only on entries with seq' < k (younger writes
// never block older reads — that would deadlock the in-order resolver).
// Entries are registered at seal and removed when the bucket write
// completes, and seal(k) precedes prefetch-issue(k+1) on the
// sequencer, so a younger fetch can never miss an older hazard.
type cserve struct {
	c     *Controller
	opts  PipelineOpts
	depth int // in-flight accesses; also the fetch, serve and write fan-out

	// mu guards tasks, cur-free exchange, queued, inflight, err, the
	// shared stats, and slot/task recycling. cond signals retirement,
	// fetch completion, writeback completion, and error latch. Lock
	// order: mu OUTER, stashMu inner (retire holds both; execute takes
	// stashMu alone).
	mu   sync.Mutex
	cond *sync.Cond
	err  error

	tasks      []*ctask // sealed, unretired, ascending seq; [0] is the ROB head
	resolveIdx int      // index into tasks of the next unresolved task
	taskFree   []*ctask
	slotFree   []*pfSlot

	cur     *ctask // access being recorded by the sequencer (sequencer-owned)
	nextSeq uint64 // last assigned seq (sequencer-owned)
	pfQ     []*pfSlot

	queued   map[tree.Node][]uint64 // node -> seqs of planned, unwritten refills
	inflight map[tree.Node]int      // nodes being written right now

	runnable chan *ctask // resolved, dependency-free tasks (never blocks: cap > depth)
	pfCh     chan *pfSlot
	wbCh     chan *wbJob
	jobFree  chan *wbJob
	wbSem    chan struct{} // bounds concurrent WriteBuckets calls
	wbWg     sync.WaitGroup

	// stashMu serializes all stash access during the window: worker
	// stash phases (whole-task atomic) and retirement's EndAccess. The
	// stash itself stays single-threaded-simple (see stash package doc).
	stashMu sync.Mutex

	wg sync.WaitGroup

	stats  PipelineStats // sequencer-owned counters
	shared PipelineStats // worker-side counters, under mu

	fetchStalled bool // resolution head is waiting on its own fetch
	fetchStallT  time.Time
}

// serveOp is one deferred FetchBlock (Step 4 of the access flow).
type serveOp struct {
	op       Op
	addr     uint64
	newLabel tree.Label
	data     []byte
	done     func([]byte, error)
}

// ctask is one access's recorded execution: everything the sequencer
// decided, replayable on any worker. Node and serve slices are
// task-owned (the engine's access record is recycled every Begin).
type ctask struct {
	seq       uint64
	label     tree.Label
	haveLabel bool
	readFrom  uint // first level read; LeafLevel+1 when fully merged
	stop      uint // first level NOT written; LeafLevel+1 when nothing written
	dummy     bool

	readNodes  []tree.Node // fetched nodes, root-to-leaf
	writeNodes []tree.Node // planned refill nodes, leaf-to-root
	serves     []serveOp
	pf         *pfSlot
	addrs      []uint64 // touched addresses, filled at resolution

	resolved bool
	executed bool
	failed   bool
	ndeps    int      // unexecuted older tasks this one must wait for
	waiters  []*ctask // younger tasks waiting on this one
	parkT    time.Time
}

// pfSlot is one outstanding path fetch. The sequencer fills the request
// fields and sends it on pfCh; a fetch worker fills bks/err and flips
// ready under mu. Any number of slots may be in flight.
type pfSlot struct {
	seq   uint64 // seq of the access that will consume this fetch
	label tree.Label
	from  uint
	ns    []tree.Node
	bks   []block.Bucket
	ready bool
	err   error
}

// wbJob is one access's planned refill travelling to the writeback
// stage: the nodes written (leaf-to-root, the order WriteLevel recorded
// them) and the evicted blocks per node. The job owns its block slices
// — EvictAppend transferred the blocks out of the stash — so the writer
// encodes and seals without touching any engine-side state.
type wbJob struct {
	ns     []tree.Node
	bks    []block.Bucket
	blocks [][]block.Block
}

// newCserve sizes the stage from the depth alone: one fetch and one
// serve worker per in-flight slot (a worker beyond the ROB size could
// never hold a task), up to depth concurrent bucket writes, and depth-1
// refills queued behind them.
func newCserve(c *Controller, o PipelineOpts) *cserve {
	depth := o.Depth
	cs := &cserve{
		c:     c,
		opts:  o,
		depth: depth,
		// +2: one slot for a commit-time empty task (which bypasses the
		// depth gate) and one for a dependency wake racing a resolve push.
		runnable: make(chan *ctask, depth+2),
		pfCh:     make(chan *pfSlot, depth+2),
		wbCh:     make(chan *wbJob, depth-1),
		wbSem:    make(chan struct{}, depth),
		queued:   make(map[tree.Node][]uint64),
		inflight: make(map[tree.Node]int),
	}
	cs.cond = sync.NewCond(&cs.mu)
	// Every job in flight (depth executing, depth-1 queued, depth
	// writing) plus slack, so taking one never waits on the pool alone.
	jobs := 3*depth + 1
	cs.jobFree = make(chan *wbJob, jobs)
	for i := 0; i < jobs; i++ {
		cs.jobFree <- &wbJob{}
	}
	for i := 0; i < depth; i++ {
		cs.wg.Add(2)
		go prof.Stage("fetch", cs.fetchWorker)
		go prof.Stage("serve", cs.serveWorker)
	}
	cs.wg.Add(1)
	go prof.Stage("writeback", cs.wbDispatcher)
	return cs
}

func (cs *cserve) latch(err error) {
	cs.mu.Lock()
	if cs.err == nil {
		cs.err = err
	}
	cs.cond.Broadcast()
	cs.mu.Unlock()
}

// ensureCur returns the task recording the access currently between
// Begin and CommitAccess, opening one if needed. Opening waits for ROB
// capacity: at most depth unretired accesses (ServeWaits counts the
// backpressure).
func (cs *cserve) ensureCur() *ctask {
	if cs.cur != nil {
		return cs.cur
	}
	cs.mu.Lock()
	if len(cs.tasks) >= cs.depth && cs.err == nil {
		t0 := time.Now()
		for len(cs.tasks) >= cs.depth && cs.err == nil {
			cs.cond.Wait()
		}
		cs.stats.ServeWaits++
		cs.stats.ServeWaitNs += uint64(time.Since(t0))
	}
	t := cs.takeTask()
	cs.mu.Unlock()
	cs.nextSeq++
	t.seq = cs.nextSeq
	cs.cur = t
	return t
}

// takeTask recycles or allocates a task record. Caller holds mu.
func (cs *cserve) takeTask() *ctask {
	var t *ctask
	if n := len(cs.taskFree); n > 0 {
		t = cs.taskFree[n-1]
		cs.taskFree = cs.taskFree[:n-1]
	} else {
		t = &ctask{}
	}
	t.haveLabel = false
	t.readFrom = uint(cs.c.tr.LeafLevel()) + 1
	t.stop = uint(cs.c.tr.LeafLevel()) + 1
	t.dummy = false
	t.readNodes = t.readNodes[:0]
	t.writeNodes = t.writeNodes[:0]
	t.serves = t.serves[:0]
	t.addrs = t.addrs[:0]
	t.pf = nil
	t.resolved, t.executed, t.failed = false, false, false
	t.ndeps = 0
	t.waiters = t.waiters[:0]
	return t
}

// takeSlot recycles or allocates a fetch slot and sizes it for the
// segment [from, LeafLevel] of label's path.
func (cs *cserve) takeSlot(label tree.Label, from uint, seq uint64) *pfSlot {
	cs.mu.Lock()
	var s *pfSlot
	if n := len(cs.slotFree); n > 0 {
		s = cs.slotFree[n-1]
		cs.slotFree = cs.slotFree[:n-1]
	} else {
		s = &pfSlot{}
	}
	cs.mu.Unlock()
	s.seq, s.label, s.from = seq, label, from
	s.ready, s.err = false, nil
	s.ns = s.ns[:0]
	for lvl := from; lvl <= uint(cs.c.tr.LeafLevel()); lvl++ {
		s.ns = append(s.ns, cs.c.tr.NodeAt(label, lvl))
	}
	if cap(s.bks) < len(s.ns) {
		s.bks = make([]block.Bucket, len(s.ns))
	}
	s.bks = s.bks[:len(s.ns)]
	return s
}

// prefetch issues the fetch for the NEXT access (sequencer, between
// Finish(k) and Begin(k+1) — so the slot is tagged seq k+1, and every
// hazard of seqs <= k is already registered).
func (cs *cserve) prefetch(label tree.Label, fromLevel uint) {
	cs.c.noteFirstFetch()
	s := cs.takeSlot(label, fromLevel, cs.nextSeq+1)
	cs.pfQ = append(cs.pfQ, s)
	cs.stats.Prefetches++
	cs.pfCh <- s
}

// readRange is the concurrent-stage ReadRange: record the segment and
// attach the matching in-flight fetch — nothing touches the stash yet.
func (cs *cserve) readRange(label tree.Label, fromLevel uint, dst []tree.Node) ([]tree.Node, error) {
	t := cs.ensureCur()
	t.label, t.haveLabel = label, true
	t.readFrom = fromLevel
	for lvl := fromLevel; lvl <= uint(cs.c.tr.LeafLevel()); lvl++ {
		n := cs.c.tr.NodeAt(label, lvl)
		dst = append(dst, n)
		t.readNodes = append(t.readNodes, n)
	}
	if len(cs.pfQ) > 0 {
		s := cs.pfQ[0]
		copy(cs.pfQ, cs.pfQ[1:])
		cs.pfQ = cs.pfQ[:len(cs.pfQ)-1]
		if s.label != label || s.from != fromLevel || s.seq != t.seq {
			err := fmt.Errorf("pathoram: prefetch mismatch: slot (label %d from %d seq %d), access (label %d from %d seq %d)",
				s.label, s.from, s.seq, label, fromLevel, t.seq)
			cs.latch(err)
			return dst, err
		}
		t.pf = s
		return dst, nil
	}
	// No prefetch was issued (window start): issue one now; resolution
	// will wait for it like any other.
	cs.c.noteFirstFetch()
	s := cs.takeSlot(label, fromLevel, t.seq)
	cs.stats.Prefetches++
	cs.pfCh <- s
	t.pf = s
	return dst, nil
}

// writeLevel is the concurrent-stage WriteLevel: record the refill
// node. Eviction is planned at execution, against the stash state all
// older accesses produced — exactly the serial timing.
func (cs *cserve) writeLevel(label tree.Label, level uint) (tree.Node, error) {
	t := cs.ensureCur()
	t.label, t.haveLabel = label, true
	n := cs.c.tr.NodeAt(label, level)
	t.writeNodes = append(t.writeNodes, n)
	t.stop = level
	return n, nil
}

// deferServe records one request's stash work on the current access.
func (cs *cserve) deferServe(op Op, addr uint64, newLabel tree.Label, data []byte, done func([]byte, error)) {
	t := cs.ensureCur()
	t.serves = append(t.serves, serveOp{op: op, addr: addr, newLabel: newLabel, data: data, done: done})
}

// commit seals the current access: cross-check the engine's reported
// dependency footprint against what was recorded (a tripwire for
// schedule divergence), register its write hazards, and hand it to the
// resolver. An access that neither read, wrote, nor served still seals
// an empty task so retirement fires its Observer callback and stash
// sample in program order.
func (cs *cserve) commit(deps AccessDeps) error {
	t := cs.cur
	if t == nil {
		t = cs.ensureCur() // same capacity gate as a recording access
	}
	cs.cur = nil
	if !t.haveLabel {
		t.label, t.haveLabel = deps.Label, true
	}
	leafPlus := uint(cs.c.tr.LeafLevel()) + 1
	wantRead, wantStop := deps.ReadFrom, deps.Stop
	if wantRead > leafPlus {
		wantRead = leafPlus
	}
	if wantStop > leafPlus {
		wantStop = leafPlus
	}
	if t.label != deps.Label || t.readFrom != wantRead || t.stop != wantStop {
		err := fmt.Errorf("pathoram: engine/stage footprint divergence: recorded (label %d read %d stop %d), engine (label %d read %d stop %d)",
			t.label, t.readFrom, t.stop, deps.Label, wantRead, wantStop)
		cs.latch(err)
		return err
	}
	if (len(t.serves) == 0) != deps.Dummy {
		err := fmt.Errorf("pathoram: engine/stage serve divergence: %d serves recorded for dummy=%v access",
			len(t.serves), deps.Dummy)
		cs.latch(err)
		return err
	}
	t.dummy = deps.Dummy
	cs.mu.Lock()
	for _, n := range t.writeNodes {
		cs.queued[n] = append(cs.queued[n], t.seq)
	}
	cs.tasks = append(cs.tasks, t)
	cs.advance()
	err := cs.err
	cs.mu.Unlock()
	return err
}

// hazardBefore reports whether any node in ns has a planned, unwritten
// refill from an access older than seq. Caller holds mu.
func (cs *cserve) hazardBefore(ns []tree.Node, seq uint64) bool {
	for _, n := range ns {
		for _, s := range cs.queued[n] {
			if s < seq {
				return true
			}
		}
	}
	return false
}

// touchedAddrs fills t.addrs: served addresses plus every address the
// fetch brought in. Called at resolution, after t's fetch completed.
func (cs *cserve) touchedAddrs(t *ctask) {
	t.addrs = t.addrs[:0]
	for i := range t.serves {
		t.addrs = append(t.addrs, t.serves[i].addr)
	}
	if t.pf != nil {
		for i := range t.pf.bks {
			for _, b := range t.pf.bks[i].Blocks {
				t.addrs = append(t.addrs, b.Addr)
			}
		}
	}
}

// conflict reports whether a (older) and b (younger) must execute in
// program order. See the file comment for the derivation.
func (cs *cserve) conflict(a, b *ctask) bool {
	for _, x := range a.addrs {
		for _, y := range b.addrs {
			if x == y {
				return true
			}
		}
	}
	if a.haveLabel && b.haveLabel {
		o := cs.c.tr.Overlap(a.label, b.label)
		m := a.readFrom
		if a.stop < m {
			m = a.stop
		}
		if b.readFrom < m {
			m = b.readFrom
		}
		if b.stop < m {
			m = b.stop
		}
		if o > m {
			return true
		}
	}
	if b.haveLabel {
		for i := range a.serves {
			if cs.c.tr.Overlap(a.serves[i].newLabel, b.label) > b.stop {
				return true
			}
		}
	}
	if a.haveLabel {
		for i := range b.serves {
			if cs.c.tr.Overlap(b.serves[i].newLabel, a.label) > a.stop {
				return true
			}
		}
	}
	return false
}

// advance resolves tasks in seq order: once a task's own fetch is
// complete, compute its dependency edges against every older unexecuted
// task and either dispatch it or park it. Caller holds mu. EvictWaits
// counts resolution stalls on the head task's fetch.
func (cs *cserve) advance() {
	for cs.resolveIdx < len(cs.tasks) {
		t := cs.tasks[cs.resolveIdx]
		if t.pf != nil && !t.pf.ready && cs.err == nil {
			if !cs.fetchStalled {
				cs.fetchStalled = true
				cs.fetchStallT = time.Now()
				cs.shared.EvictWaits++
			}
			return
		}
		if cs.fetchStalled {
			cs.fetchStalled = false
			cs.shared.EvictWaitNs += uint64(time.Since(cs.fetchStallT))
		}
		if cs.err != nil || (t.pf != nil && t.pf.err != nil) {
			t.failed = true
		}
		if !t.failed {
			cs.touchedAddrs(t)
			for j := 0; j < cs.resolveIdx; j++ {
				o := cs.tasks[j]
				if o.executed || o.failed {
					continue
				}
				if cs.conflict(o, t) {
					t.ndeps++
					o.waiters = append(o.waiters, t)
				}
			}
		}
		t.resolved = true
		if t.ndeps == 0 {
			cs.runnable <- t
		} else {
			t.parkT = time.Now()
			cs.shared.DepWaits++
		}
		cs.resolveIdx++
	}
}

// fetchWorker drains pfCh: wait out write hazards older than the slot's
// access, read the segment, and push resolution forward. Multiple fetch
// workers overlap storage read latency across accesses.
func (cs *cserve) fetchWorker() {
	defer cs.wg.Done()
	for s := range cs.pfCh {
		cs.mu.Lock()
		if cs.hazardBefore(s.ns, s.seq) && cs.err == nil {
			t0 := time.Now()
			for cs.hazardBefore(s.ns, s.seq) && cs.err == nil {
				cs.cond.Wait()
			}
			cs.shared.FetchWaits++
			cs.shared.FetchWaitNs += uint64(time.Since(t0))
		}
		failed := cs.err != nil
		cs.mu.Unlock()
		var err error
		if !failed {
			err = cs.c.bulk.ReadBuckets(s.ns, s.bks)
		}
		cs.mu.Lock()
		s.ready = true
		s.err = err
		if err != nil && cs.err == nil {
			cs.err = err
		}
		cs.advance()
		cs.cond.Broadcast()
		cs.mu.Unlock()
	}
}

// serveWorker drains runnable tasks.
func (cs *cserve) serveWorker() {
	defer cs.wg.Done()
	for t := range cs.runnable {
		cs.execute(t)
	}
}

// execute runs one resolved, dependency-free task: the access's whole
// stash phase (put fetched buckets, serve requests, plan evictions)
// atomically under the stash lock, then flush the refill to the
// writeback stage. Program-order results for dependent accesses come
// from the scheduler; commutativity of independent ones from the
// conflict predicate.
func (cs *cserve) execute(t *ctask) {
	if k := cs.opts.Kill; k != nil && !t.failed {
		if err := k(); err != nil {
			cs.latch(err)
		}
	}
	cs.mu.Lock()
	if cs.err != nil {
		t.failed = true
	}
	cs.mu.Unlock()

	var job *wbJob
	if !t.failed && len(t.writeNodes) > 0 {
		select {
		case job = <-cs.jobFree:
		default:
			t0 := time.Now()
			job = <-cs.jobFree
			cs.mu.Lock()
			cs.shared.WritebackWaits++
			cs.shared.WritebackWaitNs += uint64(time.Since(t0))
			cs.mu.Unlock()
		}
		job.ns, job.bks = job.ns[:0], job.bks[:0]
	}

	var serveErr error
	if !t.failed {
		c := cs.c
		cs.stashMu.Lock()
		if t.pf != nil {
			// Root-to-leaf so the deepest copy of a briefly-duplicated
			// address wins (see readRangeBulk).
			for i := range t.pf.bks {
				c.stash.PutBucket(&t.pf.bks[i])
			}
		}
		for i := range t.serves {
			s := &t.serves[i]
			out, err := c.applyFetch(s.op, s.addr, s.newLabel, s.data)
			if err != nil {
				serveErr = err
				break
			}
			if s.done != nil {
				s.done(out, nil)
			}
		}
		if serveErr == nil && job != nil {
			for i, n := range t.writeNodes {
				if cap(job.blocks) <= i {
					grown := make([][]block.Block, i+1, 2*(i+1))
					copy(grown, job.blocks)
					job.blocks = grown
				}
				job.blocks = job.blocks[:i+1]
				job.blocks[i] = c.stash.EvictAppend(job.blocks[i][:0], n, c.z)
				job.ns = append(job.ns, n)
				job.bks = append(job.bks, block.Bucket{Blocks: job.blocks[i]})
			}
		}
		cs.stashMu.Unlock()
	}
	if serveErr != nil {
		t.failed = true
		cs.latch(serveErr)
	}

	if job != nil {
		if t.failed {
			cs.jobFree <- job
		} else {
			select {
			case cs.wbCh <- job:
			default:
				t0 := time.Now()
				cs.wbCh <- job
				cs.mu.Lock()
				cs.shared.WritebackWaits++
				cs.shared.WritebackWaitNs += uint64(time.Since(t0))
				cs.mu.Unlock()
			}
		}
	}

	cs.mu.Lock()
	if t.pf != nil && !t.failed {
		cs.shared.PrefetchedBuckets += uint64(len(t.pf.ns))
	}
	t.executed = true
	for _, w := range t.waiters {
		w.ndeps--
		if w.ndeps == 0 {
			cs.shared.DepWaitNs += uint64(time.Since(w.parkT))
			cs.runnable <- w
		}
	}
	t.waiters = t.waiters[:0]
	cs.retireLoop()
	cs.cond.Broadcast()
	cs.mu.Unlock()
}

// retireLoop pops executed tasks off the ROB head in program order:
// sample stash occupancy (the statistic is defined per completed
// access), fire the Observer, and recycle. Caller holds mu.
func (cs *cserve) retireLoop() {
	for len(cs.tasks) > 0 && cs.tasks[0].executed {
		t := cs.tasks[0]
		copy(cs.tasks, cs.tasks[1:])
		cs.tasks = cs.tasks[:len(cs.tasks)-1]
		cs.resolveIdx--
		if !t.failed {
			cs.stashMu.Lock()
			cs.c.stash.EndAccess()
			cs.stashMu.Unlock()
			if cs.opts.Observer != nil {
				cs.opts.Observer(t.label, t.dummy, t.readNodes, t.writeNodes)
			}
		}
		if t.pf != nil {
			cs.slotFree = append(cs.slotFree, t.pf)
			t.pf = nil
		}
		cs.taskFree = append(cs.taskFree, t)
	}
}

// wbBusy reports whether any node in ns has a bucket write in flight.
// Caller holds mu.
func (cs *cserve) wbBusy(ns []tree.Node) bool {
	for _, n := range ns {
		if cs.inflight[n] > 0 {
			return true
		}
	}
	return false
}

// wbDispatcher drains refill jobs in flush order (same-node jobs flush
// in seq order because node overlap implies a scheduler edge), gating
// each on in-flight writes to its nodes, then fans the bucket writes
// out across up to depth concurrent WriteBuckets calls — the write
// half of the latency overlap.
func (cs *cserve) wbDispatcher() {
	defer cs.wg.Done()
	for job := range cs.wbCh {
		cs.mu.Lock()
		for cs.wbBusy(job.ns) && cs.err == nil {
			cs.cond.Wait()
		}
		for _, n := range job.ns {
			cs.inflight[n]++
		}
		failed := cs.err != nil
		cs.mu.Unlock()
		cs.wbSem <- struct{}{}
		cs.wbWg.Add(1)
		go func(job *wbJob, failed bool) {
			defer cs.wbWg.Done()
			var err error
			if !failed {
				err = cs.c.bulk.WriteBuckets(job.ns, job.bks)
			}
			cs.mu.Lock()
			if err != nil && cs.err == nil {
				cs.err = err
			}
			for _, n := range job.ns {
				cs.inflight[n]--
				if cs.inflight[n] <= 0 {
					delete(cs.inflight, n)
				}
				// Completion order per node is seq order, so retire the
				// oldest hazard entry.
				if q := cs.queued[n]; len(q) > 0 {
					copy(q, q[1:])
					cs.queued[n] = q[:len(q)-1]
					if len(q) == 1 {
						delete(cs.queued, n)
					}
				}
			}
			if err == nil && !failed {
				cs.shared.Writebacks++
			}
			cs.cond.Broadcast()
			cs.mu.Unlock()
			<-cs.wbSem
			cs.jobFree <- job
		}(job, failed)
	}
	cs.wbWg.Wait()
}

// stop drains the window and joins every worker. A non-nil cur means
// the drive loop aborted mid-access (only possible with a latched
// error); it was never sealed, so it is simply dropped.
func (cs *cserve) stop() error {
	cs.mu.Lock()
	if cs.cur != nil {
		cs.taskFree = append(cs.taskFree, cs.cur)
		cs.cur = nil
	}
	for len(cs.tasks) > 0 {
		cs.cond.Wait()
	}
	cs.mu.Unlock()
	close(cs.pfCh)
	close(cs.runnable)
	close(cs.wbCh)
	cs.wg.Wait()
	// Leftover prefetches (issued for accesses that never began — only
	// on abort) and unretired hazard entries are moot: either the
	// window completed cleanly (none exist) or err is latched and the
	// controller poisons itself.
	return cs.err
}
