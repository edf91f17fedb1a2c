// Package sim is the full-system simulator: trace-driven cores issue
// memory requests through a shared LLC into either plain DRAM (the
// insecure baseline), a traditional hierarchical Path ORAM, or the Fork
// Path engine, all timed against the DDR3 model. It produces every metric
// the paper's evaluation section reports: execution time (slowdown),
// average data-request ORAM latency, average accessed path length, total
// ORAM request counts including dummies, DRAM activity and energy.
package sim

import (
	"fmt"

	"forkoram/internal/block"
	"forkoram/internal/cpu"
	"forkoram/internal/crypt"
	"forkoram/internal/dram"
	"forkoram/internal/energy"
	"forkoram/internal/fork"
	"forkoram/internal/llc"
	"forkoram/internal/mac"
	"forkoram/internal/recursion"
	"forkoram/internal/rng"
	"forkoram/internal/stash"
	"forkoram/internal/stats"
	"forkoram/internal/storage"
	"forkoram/internal/tree"
	"forkoram/internal/workload"
)

// Scheme selects the memory protection scheme.
type Scheme int

// Schemes.
const (
	// Insecure is plain DRAM: the paper's normalization baseline.
	Insecure Scheme = iota
	// Traditional is the baseline unified hierarchical Path ORAM: every
	// request traverses a full path, FIFO, idle when no requests pend.
	Traditional
	// ForkPath is the paper's contribution: path merging + request
	// scheduling + dummy replacement via the label queue.
	ForkPath
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case Insecure:
		return "insecure"
	case Traditional:
		return "traditional"
	case ForkPath:
		return "forkpath"
	}
	return "unknown"
}

// CacheKind selects the on-chip bucket cache.
type CacheKind int

// Cache kinds.
const (
	CacheNone CacheKind = iota
	CacheTreetop
	CacheMAC
)

// Config describes one simulation run.
type Config struct {
	Scheme Scheme

	// Cores and workloads. For multi-programmed runs, Workloads[i] drives
	// core i. For multithreaded runs (Multithreaded true) Workloads[0]
	// names one PARSEC-like profile shared by all cores.
	Cores           int
	CoreModel       cpu.Model
	MLP             int
	FreqGHz         float64
	Workloads       []string
	Multithreaded   bool
	RequestsPerCore uint64 // post-L1 accesses issued per core
	// Traces, when non-nil, replaces the synthetic generators: core i
	// replays Traces[i] (looping if shorter than RequestsPerCore).
	// Workloads is then ignored.
	Traces [][]workload.Request

	LLC llc.Config

	// ORAM geometry.
	DataBlocks     uint64 // N (4 GB / 64 B = 1<<26 in Table 1)
	Z              int
	PayloadSize    int
	LabelsPerBlock int
	OnChipEntries  uint64
	StashCapacity  int
	// SuperBlock groups this many adjacent data blocks under one label
	// (static super blocks, paper ref [18]); 0/1 disables.
	SuperBlock int

	// Fork Path engine.
	QueueSize           int
	AgeThreshold        int // 0 = 16*QueueSize
	DummyReplaceEnabled bool

	// On-chip bucket cache.
	Cache      CacheKind
	CacheBytes int
	MACM1      uint // 0 = derived from QueueSize via EstimatedOverlap

	// PeriodicIntervalNS paces ORAM accesses at fixed, data-independent
	// wall-clock slots (§2.2's timing-channel protection, Figure 1(c)).
	// 0 = on-demand issue (back-to-back when work pends). Only the
	// ForkPath scheme supports pacing.
	PeriodicIntervalNS float64

	// Memory system.
	Channels   int
	FlatLayout bool

	Seed uint64
}

// Default returns the paper's Table 1 configuration with the given scheme:
// 4 OoO cores at 2 GHz, 1 MB shared LLC, 4 GB data ORAM (Z = 4, 64 B
// blocks), label queue 64, 2 DDR3-1600 channels.
func Default(scheme Scheme) Config {
	return Config{
		Scheme:              scheme,
		Cores:               4,
		CoreModel:           cpu.OutOfOrder,
		MLP:                 8,
		FreqGHz:             2.0,
		Workloads:           []string{"gcc", "bwaves", "mcf", "gromacs"},
		RequestsPerCore:     20000,
		LLC:                 llc.Default(),
		DataBlocks:          1 << 26,
		Z:                   4,
		PayloadSize:         64,
		LabelsPerBlock:      16,
		OnChipEntries:       1 << 15,
		StashCapacity:       200,
		QueueSize:           64,
		DummyReplaceEnabled: true,
		Cache:               CacheNone,
		Channels:            2,
		Seed:                1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("sim: need at least one core")
	}
	switch {
	case c.Traces != nil:
		if len(c.Traces) != c.Cores {
			return fmt.Errorf("sim: %d traces for %d cores", len(c.Traces), c.Cores)
		}
		for i, tr := range c.Traces {
			if len(tr) == 0 {
				return fmt.Errorf("sim: trace %d is empty", i)
			}
		}
	case c.Multithreaded:
		if len(c.Workloads) != 1 {
			return fmt.Errorf("sim: multithreaded runs take exactly one workload")
		}
	default:
		if len(c.Workloads) != c.Cores {
			return fmt.Errorf("sim: %d workloads for %d cores", len(c.Workloads), c.Cores)
		}
	}
	if c.RequestsPerCore == 0 {
		return fmt.Errorf("sim: RequestsPerCore must be positive")
	}
	if c.Scheme != Insecure && c.QueueSize < 1 {
		return fmt.Errorf("sim: queue size must be >= 1")
	}
	if c.Channels < 1 {
		return fmt.Errorf("sim: need at least one channel")
	}
	return nil
}

// EstimatedOverlap returns the expected stationary overlap degree of
// consecutive scheduled paths for a label queue of size q (measured from
// the pure max-overlap selection process; ~2 at q = 1, growing ~0.77 per
// doubling). Used to place the merging-aware cache's m1 level.
func EstimatedOverlap(q int) float64 {
	o := 2.0
	for q > 1 {
		o += 0.77
		q >>= 1
	}
	return o
}

// Result collects the metrics of one run.
type Result struct {
	Scheme Scheme

	ExecNS            float64 // max core finish time
	DemandRequests    uint64  // LLC misses cores waited on
	MeanORAMLatencyNS float64 // paper's "ORAM latency" (Fig. 12 etc.)

	RealAccesses  uint64 // ORAM accesses serving a real request
	DummyAccesses uint64
	StashServed   uint64 // requests completed by the Step-1 shortcut

	// AvgPathBuckets is the mean number of buckets per ORAM access phase
	// ((reads+writes)/2 per access) before on-chip caches — the paper's
	// "average ORAM path length" (Fig. 10; 25 for the traditional scheme).
	AvgPathBuckets float64
	// MeanAccessDRAMNS is the mean DRAM service time per ORAM access
	// (Fig. 10's latency curve).
	MeanAccessDRAMNS float64

	LLCMissRate float64
	DRAM        dram.Counters
	Energy      energy.Breakdown
	Stash       stash.Stats
	Truncated   bool // hit the safety cap before draining
}

// TotalAccesses returns real + dummy ORAM accesses.
func (r Result) TotalAccesses() uint64 { return r.RealAccesses + r.DummyAccesses }

// reqRecord tracks one LLC-level request through the ORAM pipeline.
type reqRecord struct {
	id      uint64
	core    int // -1 for write-backs
	addr    uint64
	demand  bool
	arrival float64
}

// machine is the assembled simulation state.
type machine struct {
	cfg    Config
	cores  []*cpu.Core
	cache  *llc.Cache
	hier   *recursion.Hierarchy
	eng    *fork.Engine
	aq     *fork.AddrQueue
	mem    *dram.Sim
	tracer *storage.Tracer

	records    map[uint64]*reqRecord
	itemRecord map[uint64]uint64   // data item ID -> record ID
	mshr       map[uint64][]uint64 // addr -> piggybacked demand record IDs
	deferred   []*fork.AddrRequest // group-MSHR: waiting on an in-flight super-block access
	spill      []*fork.Item        // expanded items awaiting engine slots
	fifo       []*fork.Item        // traditional-mode label queue
	nextID     uint64
	now        float64

	pathBuf []tree.Node // scratch for traditional-mode path node lists

	slot      float64 // next periodic issue slot
	latency   stats.Mean
	dramTime  stats.Mean
	accReal   uint64
	accDummy  uint64
	stashSrv  uint64
	buckets   uint64 // pre-cache buckets accessed (read + write)
	queueOps  uint64
	truncated bool
	maxAccess uint64
}

// controller overhead charged per ORAM access (decrypt pipeline setup,
// queue management); keeps zero-DRAM accesses from stalling time.
const ctrlOverheadNS = 4.0

// regionStream maps a generator's addresses into a core's slice of the
// ORAM data space.
type regionStream struct {
	gen  *workload.Generator
	base uint64
	size uint64
	max  uint64
}

// Next implements cpu.Stream.
func (r *regionStream) Next() (workload.Request, bool) {
	req := r.gen.Next()
	a := req.Addr
	if a >= r.base {
		// Private access: wrap the (possibly larger) synthetic footprint
		// into this core's slice of the ORAM data space.
		a = r.base + (a-r.base)%r.size
	}
	// Shared-region accesses (multithreaded runs) lie below base already.
	req.Addr = a % r.max
	return req, true
}

// traceStream replays a recorded trace, folding addresses into the ORAM
// data space.
type traceStream struct {
	r   *workload.Replay
	max uint64
}

// Next implements cpu.Stream.
func (t *traceStream) Next() (workload.Request, bool) {
	req, ok := t.r.Next()
	req.Addr %= t.max
	return req, ok
}

// build assembles a machine from a config.
func build(cfg Config) (*machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)

	// ORAM hierarchy over a metadata backend, with the cache decorator
	// above a DRAM-traffic tracer.
	rc := recursion.Config{
		DataBlocks:     cfg.DataBlocks,
		LabelsPerBlock: cfg.LabelsPerBlock,
		OnChipEntries:  cfg.OnChipEntries,
		Z:              cfg.Z,
		PayloadSize:    cfg.PayloadSize,
		StashCapacity:  cfg.StashCapacity,
		SuperBlock:     cfg.SuperBlock,
	}
	_, tr, err := recursion.Plan(rc)
	if err != nil {
		return nil, err
	}
	meta, err := storage.NewMeta(tr, blockGeo(cfg))
	if err != nil {
		return nil, err
	}
	tracer := storage.NewTracer(meta)
	var backend storage.Backend = tracer
	switch cfg.Cache {
	case CacheTreetop:
		backend, err = mac.NewTreetop(tracer, tr, cfg.CacheBytes)
	case CacheMAC:
		m1 := cfg.MACM1
		if m1 == 0 {
			m1 = uint(EstimatedOverlap(cfg.QueueSize)) + 1
		}
		backend, err = mac.NewMAC(tracer, tr, mac.MACConfig{CapacityBytes: cfg.CacheBytes, M1: m1})
	}
	if err != nil {
		return nil, err
	}
	hier, err := recursion.New(rc, backend, root.Split())
	if err != nil {
		return nil, err
	}

	// Fork engine (unused by Insecure; Traditional uses the FIFO path).
	var eng *fork.Engine
	if cfg.Scheme == ForkPath {
		age := cfg.AgeThreshold
		if age == 0 {
			age = 16 * cfg.QueueSize
		}
		eng, err = fork.NewEngine(fork.Config{
			QueueSize:           cfg.QueueSize,
			AgeThreshold:        age,
			MergeEnabled:        true,
			DummyReplaceEnabled: cfg.DummyReplaceEnabled,
		}, hier.Controller(), root.Split())
		if err != nil {
			return nil, err
		}
	}

	// DRAM with the sealed-bucket footprint.
	bucketWire := blockGeo(cfg).BucketSize() + crypt.NonceSize
	dcfg := dram.Default(bucketWire)
	dcfg.Channels = cfg.Channels
	if cfg.Scheme == Insecure {
		dcfg.BucketBytes = 64
	}
	var layout dram.Layout
	if cfg.FlatLayout {
		layout = dram.FlatLayout{BucketBytes: bucketWire, RowBytes: dcfg.RowBytes, Channels: dcfg.Channels, Banks: dcfg.Banks}
	} else {
		layout, err = dram.NewSubtreeLayout(tr, bucketWire, dcfg.RowBytes, dcfg.Channels, dcfg.Banks)
		if err != nil {
			return nil, err
		}
	}
	mem, err := dram.NewSim(dcfg, layout)
	if err != nil {
		return nil, err
	}

	// LLC.
	cache, err := llc.New(cfg.LLC)
	if err != nil {
		return nil, err
	}

	// Cores and streams.
	cores := make([]*cpu.Core, cfg.Cores)
	region := cfg.DataBlocks / uint64(cfg.Cores)
	var sharedLen uint64
	if cfg.Multithreaded {
		sharedLen = cfg.DataBlocks / 4
		region = (cfg.DataBlocks - sharedLen) / uint64(cfg.Cores)
	}
	for i := range cores {
		var stream cpu.Stream
		if cfg.Traces != nil {
			stream = &traceStream{r: workload.NewReplay(cfg.Traces[i], true), max: cfg.DataBlocks}
		} else {
			name := cfg.Workloads[0]
			if !cfg.Multithreaded {
				name = cfg.Workloads[i]
			}
			prof, err := workload.Lookup(name)
			if err != nil {
				return nil, err
			}
			base := uint64(i) * region
			sharedBase := uint64(0)
			sl := uint64(0)
			if cfg.Multithreaded {
				base = sharedLen + uint64(i)*region
				sharedBase = 0
				sl = sharedLen
			}
			gen, err := workload.NewGenerator(prof, root.Split(), base, sharedBase, sl)
			if err != nil {
				return nil, err
			}
			stream = &regionStream{gen: gen, base: base, size: region, max: cfg.DataBlocks}
		}
		core, err := cpu.New(i, cpu.Config{
			Model:   cfg.CoreModel,
			FreqGHz: cfg.FreqGHz,
			MLP:     cfg.MLP,
			MaxReqs: cfg.RequestsPerCore,
		}, stream)
		if err != nil {
			return nil, err
		}
		cores[i] = core
	}

	aqCap := 64
	if need := cfg.Cores*cfg.MLP*2 + 8; need > aqCap {
		aqCap = need
	}
	return &machine{
		cfg:        cfg,
		cores:      cores,
		cache:      cache,
		hier:       hier,
		eng:        eng,
		aq:         fork.NewAddrQueue(aqCap),
		mem:        mem,
		tracer:     tracer,
		records:    make(map[uint64]*reqRecord),
		itemRecord: make(map[uint64]uint64),
		mshr:       make(map[uint64][]uint64),
		maxAccess:  50_000_000,
	}, nil
}

func blockGeo(cfg Config) block.Geometry {
	return block.Geometry{Z: cfg.Z, PayloadSize: cfg.PayloadSize}
}

// Run executes one simulation.
func Run(cfg Config) (Result, error) {
	m, err := build(cfg)
	if err != nil {
		return Result{}, err
	}
	switch cfg.Scheme {
	case Insecure:
		err = m.runInsecure()
	case Traditional:
		err = m.runTraditional()
	case ForkPath:
		err = m.runFork()
	default:
		err = fmt.Errorf("sim: unknown scheme %d", cfg.Scheme)
	}
	if err != nil {
		return Result{}, err
	}
	return m.result(), nil
}

// result assembles the final metrics.
func (m *machine) result() Result {
	r := Result{
		Scheme:         m.cfg.Scheme,
		DemandRequests: m.latency.N(),
		RealAccesses:   m.accReal,
		DummyAccesses:  m.accDummy,
		StashServed:    m.stashSrv,
		LLCMissRate:    m.cache.MissRate(),
		DRAM:           m.mem.Counters(),
		Stash:          m.hier.Controller().Stash().Stats(),
		Truncated:      m.truncated,
	}
	r.MeanORAMLatencyNS = m.latency.Value()
	r.MeanAccessDRAMNS = m.dramTime.Value()
	for _, c := range m.cores {
		if t := c.FinishTime(); t > r.ExecNS {
			r.ExecNS = t
		}
	}
	if r.ExecNS == 0 {
		r.ExecNS = m.now
	}
	if total := r.TotalAccesses(); total > 0 {
		r.AvgPathBuckets = float64(m.buckets) / float64(2*total)
	}
	cnt := m.mem.Counters()
	act := energy.Activity{
		DRAM:        cnt,
		ElapsedNS:   r.ExecNS,
		Channels:    m.cfg.Channels,
		StashOps:    m.buckets * uint64(m.cfg.Z),
		CacheOps:    cacheOps(m),
		QueueOps:    m.queueOps,
		CryptoBytes: cnt.BytesRead + cnt.BytesWritten,
	}
	r.Energy = energy.DefaultModel().Estimate(act)
	return r
}

func cacheOps(m *machine) uint64 {
	// Pre-cache bucket ops minus DRAM bucket ops = on-chip cache service.
	dramOps := m.mem.Counters().Reads + m.mem.Counters().Writes
	if m.buckets > dramOps {
		return m.buckets - dramOps
	}
	return 0
}
