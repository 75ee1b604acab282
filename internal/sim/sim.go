// Package sim is the full-system CMP simulator: it composes the core models,
// cache hierarchies, memory system, power models, thermal model and process
// variation into one interval-driven engine — the role Simics+GEMS+Wattch+
// HotLeakage played for the paper.
//
// The engine advances in PIC-sized intervals (2.5 ms by default). Each
// interval, every core executes under its island's current operating point;
// island and chip power, utilization, BIPS and temperatures are produced for
// the controllers sitting on top (internal/core wires the GPM and PICs to
// this engine; internal/maxbips drives it for the baseline).
//
// Cross-island couplings (shared-memory queueing and lateral heat flow) are
// applied with one interval of delay, so islands are fully independent
// within an interval. This is what makes the parallel executor (one
// goroutine per island, barrier per interval) produce bit-identical results
// to the sequential one — asserted by tests.
package sim

import (
	"errors"
	"fmt"
	"sync"

	"github.com/cpm-sim/cpm/internal/cache"
	"github.com/cpm-sim/cpm/internal/island"
	"github.com/cpm-sim/cpm/internal/mem"
	"github.com/cpm-sim/cpm/internal/noc"
	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/thermal"
	"github.com/cpm-sim/cpm/internal/uarch"
	"github.com/cpm-sim/cpm/internal/variation"
	"github.com/cpm-sim/cpm/internal/workload"
)

// Config describes a complete CMP instance.
type Config struct {
	// Seed drives every stochastic component deterministically.
	Seed uint64
	// Mix assigns benchmarks to cores and defines the island structure.
	Mix workload.Mix
	// Core is the per-core microarchitecture configuration.
	Core uarch.Config
	// Power is the power model (DefaultModel if nil).
	Power *power.Model
	// Tech selects a technology node that rescales the power model and the
	// DVFS table (power.ScaleModel) before any per-island specialization.
	// The zero value applies no scaling at all: the chip is bit-identical
	// to one built before the tech axis existed.
	Tech power.TechConfig
	// IslandClasses assigns a core class per island for heterogeneous
	// big.LITTLE chips: each island gets its own DVFS table, power-model
	// scalars (power.ModelForClass) and pipeline preset
	// (uarch.ParamsForClass). Nil means every island runs the big
	// out-of-order class on the chip-wide model — the legacy homogeneous
	// path. When non-nil the length must equal the mix's island count.
	IslandClasses []power.CoreClass
	// Mem is the memory system configuration.
	Mem mem.Config
	// Thermal is the RC thermal configuration.
	Thermal thermal.Config
	// Variation is the per-core leakage variation map (uniform if empty).
	Variation variation.Map
	// IntervalSec is the simulation interval — the PIC invocation period
	// (2.5 ms default).
	IntervalSec float64
	// InitialLevel is the DVFS level all islands start at; -1 means the top
	// level (the no-power-management operating point).
	InitialLevel int
	// SharedL2 shares a banked L2 among the cores of each island,
	// approximating the shared-LLC layout of Figure 1 at island
	// granularity; the default (false) gives each core its private 512 KB
	// slice per Table I's "512 KB per core". With true LRU and sampled
	// streams, full sharing lets one streaming application evict a
	// co-runner's entire working set every few intervals — far harsher
	// than the paper's environment — so private slices are the default.
	SharedL2 bool
	// L2PrefetchDegree, when positive, attaches a sequential stream
	// prefetcher of that degree to every private L2 slice — a substrate
	// option the paper's platform lacks (off by default); incompatible
	// with SharedL2.
	L2PrefetchDegree int
	// NoC, when non-nil, adds a GALS mesh interconnect between core tiles
	// and the die-centre memory controllers: every memory access pays the
	// mesh round trip on top of DRAM latency, with congestion fed back
	// with one interval of delay. Nil disables the interconnect (memory
	// controller adjacency, the pre-mesh idealization).
	NoC *noc.Config
	// Parallel runs islands concurrently — both the chip's own sampler and
	// the compute half (bit-identical to sequential).
	Parallel bool
	// RecordTraces captures every core's per-interval TraceRecord; retrieve
	// the set with CMP.Traces() and replay it via Replay.
	RecordTraces bool
	// Replay, when non-nil, feeds the chip a recorded trace instead of
	// sampling: the chip re-executes the recorded workload behaviour
	// (possibly under a different controller or DVFS trajectory), skipping
	// phase generation and cache simulation. Interval k of core id replays
	// record k modulo that core's trace length. Core/benchmark assignments
	// must match the mix.
	Replay *uarch.TraceSet
}

// DefaultConfig returns the paper's baseline configuration (Table I) for the
// given mix.
func DefaultConfig(mix workload.Mix) Config {
	return Config{
		Seed:         1,
		Mix:          mix,
		Core:         uarch.DefaultConfig(),
		Mem:          mem.TableI(),
		Thermal:      thermal.DefaultConfig(),
		IntervalSec:  0.0025,
		InitialLevel: -1,
	}
}

// IslandResult is one island's observation for one interval — everything
// the GPM, PIC and baselines are allowed to see, plus the oracle power used
// for evaluation plots.
type IslandResult struct {
	Island  int
	Level   int
	FreqMHz float64
	// PowerW is the measured (oracle) island power.
	PowerW float64
	// PowerFracIsland is PowerW over the island's maximum power — the
	// quantity the PIC regulates.
	PowerFracIsland float64
	// PowerFracChip is PowerW over maximum chip power — the unit of the
	// paper's percent-power plots.
	PowerFracChip float64
	// MeanUtil is the mean normalized utilization across the island's
	// cores: the performance-counter observable fed to the transducer.
	MeanUtil float64
	// BIPS is the summed instruction throughput of the island.
	BIPS float64
	// Instructions executed by the island this interval.
	Instructions float64
	// Transitioned reports whether this interval paid a DVFS transition
	// overhead.
	Transitioned bool
}

// Result is one interval's chip-wide observation.
//
// Islands aliases a per-chip scratch buffer that Step overwrites on every
// interval (the steady-state loop allocates nothing); a caller that retains
// a Result across steps must Clone it first.
type Result struct {
	Interval      int
	Islands       []IslandResult
	ChipPowerW    float64
	ChipPowerFrac float64
	TotalBIPS     float64
	MaxTempC      float64
}

// Clone returns a deep copy whose Islands slice is independent of the
// chip's scratch buffer, safe to retain across Steps.
func (r Result) Clone() Result {
	r.Islands = append([]IslandResult(nil), r.Islands...)
	return r
}

// RecordSource supplies per-core TraceRecords, one batch per interval, to
// a chip's compute half. The returned slice is indexed by global core ID
// and must stay valid until the next Records call. Every chip steps through
// one: New builds a private Sampler (or, under Config.Replay, a trace
// reader), and NewWithRecords takes a caller-supplied source.
//
// The contract is lockstep: consumers ask for interval k only when the
// source's cursor is at k (which advances it) or at k+1 (which returns the
// cached batch, so several chips sharing one source can each step interval
// k). Stateful implementations (Sampler) panic on out-of-order access — it
// means chips sharing a sampler have diverged, which would silently corrupt
// every chip's workload stream; a replay source, which keeps no cursor,
// answers any k.
type RecordSource interface {
	Records(k int) []uarch.TraceRecord
}

type islandState struct {
	isl       *island.Island
	cores     []*uarch.ComputeCore
	maxPowerW float64
	// model is the island's own power model: on a homogeneous chip every
	// island aliases the chip model (pointer-identical, so the legacy
	// numerics are untouched); on a heterogeneous or tech-scaled chip each
	// class carries its own scaled table and reference parameters.
	model *power.Model
	class power.CoreClass
	// scratch for the parallel executor
	res       IslandResult
	memBlocks uint64
	powers    []float64 // per-core power of this interval (island-local)
	cpis      []float64 // per-core CPI of this interval (island-local)
}

// CMP is a simulated chip-multiprocessor instance.
type CMP struct {
	cfg      Config
	model    *power.Model
	islands  []*islandState
	memsys   *mem.System
	thermals *thermal.Model
	varmap   variation.Map

	mesh *noc.Mesh

	recorded [][]uarch.TraceRecord

	// src supplies every interval's per-core TraceRecords; recs is the
	// current interval's batch. sampler is src when the chip owns its
	// sampler (built by New without Replay) and nil otherwise; an owned
	// sampler is part of the chip's snapshot.
	src     RecordSource
	recs    []uarch.TraceRecord
	sampler *Sampler

	// cacheStatsSrc supplies CacheStats — the caches live in the record
	// source's sampler, not in the chip. Nil reads as zero counters.
	cacheStatsSrc func() CacheStats
	// islandCacheStatsSrc is the per-island twin of cacheStatsSrc.
	islandCacheStatsSrc func(int) CacheStats

	nCores     int
	maxChipW   float64
	corePowers []float64 // global, indexed by core ID
	coreCPIs   []float64 // global, indexed by core ID
	// resIslands is the reused backing array of every Result.Islands the
	// chip returns — part of the zero-allocation steady-state contract.
	resIslands []IslandResult
	interval   int
	totalInstr float64

	stepHooks []func(Result)
}

// SetStepHook installs a callback invoked at the end of every Step with the
// interval's observation — the sim-layer attachment point for observers
// when the chip is driven directly rather than through a controller. Set
// replaces every previously installed hook; a nil hook detaches them all.
// Not safe to call concurrently with Step.
func (c *CMP) SetStepHook(fn func(Result)) {
	c.stepHooks = c.stepHooks[:0]
	if fn != nil {
		c.stepHooks = append(c.stepHooks, fn)
	}
}

// AddStepHook appends a hook without disturbing the ones already installed,
// so independent observers can subscribe to the same chip. The Result's
// Islands slice is live scratch; hooks must copy what they keep. A nil hook
// is ignored. Not safe to call concurrently with Step.
func (c *CMP) AddStepHook(fn func(Result)) {
	if fn != nil {
		c.stepHooks = append(c.stepHooks, fn)
	}
}

// New builds a CMP from cfg. The chip owns its record source: a private
// Sampler (islands sampled concurrently under cfg.Parallel), or under
// cfg.Replay a reader over the recorded trace.
func New(cfg Config) (*CMP, error) {
	if cfg.Replay != nil {
		if cfg.RecordTraces {
			return nil, errors.New("sim: cannot record while replaying")
		}
		src, err := newReplaySource(cfg)
		if err != nil {
			return nil, err
		}
		return newChip(cfg, src)
	}
	s, err := NewSampler(cfg)
	if err != nil {
		return nil, err
	}
	s.parallel = cfg.Parallel
	c, err := newChip(cfg, s)
	if err != nil {
		return nil, err
	}
	c.sampler = s
	c.cacheStatsSrc = s.CacheStats
	c.islandCacheStatsSrc = s.IslandCacheStats
	if cfg.RecordTraces {
		c.recorded = make([][]uarch.TraceRecord, c.nCores)
	}
	return c, nil
}

// NewWithRecords builds a chip driven by an external record source
// (normally a sim.Sampler built from the same Config and shared by a farm
// group). Everything frequency- or chip-dependent — DVFS state, power,
// leakage, thermal RC network, memory and NoC congestion feedback, process
// variation — remains per-chip, so a chip fed the records its own New twin
// would have sampled is bit-identical to that twin. The chip holds no
// caches: CacheStats reads zero until SetCacheStatsSource points it at the
// sampler.
//
// Incompatible with RecordTraces and Replay (there is nothing to record,
// and replay already has its own record stream).
func NewWithRecords(cfg Config, src RecordSource) (*CMP, error) {
	if src == nil {
		return nil, errors.New("sim: NewWithRecords needs a record source")
	}
	if cfg.RecordTraces {
		return nil, errors.New("sim: cannot record traces from a record-driven chip")
	}
	if cfg.Replay != nil {
		return nil, errors.New("sim: cannot replay into a record-driven chip")
	}
	return newChip(cfg, src)
}

func newChip(cfg Config, src RecordSource) (*CMP, error) {
	if err := cfg.Mix.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Core.Validate(); err != nil {
		return nil, err
	}
	if cfg.IntervalSec <= 0 {
		return nil, errors.New("sim: non-positive interval")
	}
	if cfg.L2PrefetchDegree > 0 && cfg.SharedL2 {
		return nil, errors.New("sim: L2 prefetching requires private L2 slices")
	}
	model, islandModels, classes, err := resolveIslandModels(cfg)
	if err != nil {
		return nil, err
	}
	memsys, err := mem.New(cfg.Mem)
	if err != nil {
		return nil, err
	}

	profiles, err := cfg.Mix.Profiles()
	if err != nil {
		return nil, err
	}
	nCores := cfg.Mix.Cores()

	fp, err := floorplanFor(nCores)
	if err != nil {
		return nil, err
	}
	th, err := thermal.New(fp, cfg.Thermal)
	if err != nil {
		return nil, err
	}

	c := &CMP{
		cfg:        cfg,
		model:      model,
		memsys:     memsys,
		thermals:   th,
		varmap:     cfg.Variation,
		src:        src,
		nCores:     nCores,
		corePowers: make([]float64, nCores),
		coreCPIs:   make([]float64, nCores),
	}
	if cfg.NoC != nil {
		mesh, err := noc.New(*cfg.NoC)
		if err != nil {
			return nil, err
		}
		if mesh.Tiles() < nCores {
			return nil, fmt.Errorf("sim: NoC has %d tiles for %d cores", mesh.Tiles(), nCores)
		}
		c.mesh = mesh
	}

	coreID := 0
	for islandID, islandProfiles := range profiles {
		st := &islandState{model: islandModels[islandID], class: classes[islandID]}
		coreCfg, err := islandCoreConfig(cfg, st.class, st.model.Table)
		if err != nil {
			return nil, err
		}
		initLevel := cfg.InitialLevel
		if initLevel < 0 {
			initLevel = st.model.Table.Levels() - 1
		}
		if initLevel != st.model.Table.ClampLevel(initLevel) {
			return nil, fmt.Errorf("sim: initial level %d out of range for island %d (%d levels)",
				initLevel, islandID, st.model.Table.Levels())
		}
		var coreIDs []int
		for _, prof := range islandProfiles {
			// The L2 latency records are charged at is the Table I
			// per-core figure in every L2 configuration (banked shares it;
			// the prefetcher wraps a slice with it).
			core, err := uarch.NewComputeCore(coreID, coreCfg, prof,
				cache.TableIL2PerCore().LatencyCycles, memsys)
			if err != nil {
				return nil, fmt.Errorf("sim: core %d (%s): %w", coreID, prof.Name, err)
			}
			if c.mesh != nil {
				tile := coreID
				core.SetExtraMemLatency(func() float64 { return c.mesh.RoundTripLatencyNs(tile) })
			}
			st.cores = append(st.cores, core)
			coreIDs = append(coreIDs, coreID)
			coreID++
		}
		isl, err := island.New(islandID, coreIDs, st.model.Table, initLevel)
		if err != nil {
			return nil, err
		}
		st.isl = isl
		st.maxPowerW = float64(len(st.cores)) * st.model.CoreMaxPower()
		st.powers = make([]float64, len(st.cores))
		st.cpis = make([]float64, len(st.cores))
		c.islands = append(c.islands, st)
	}
	// On a homogeneous chip the chip maximum is computed exactly as it
	// always was (n × per-core maximum); summing per-island maxima instead
	// would perturb the last ulps of every percent-power figure.
	if c.Heterogeneous() {
		for _, st := range c.islands {
			c.maxChipW += st.maxPowerW
		}
	} else {
		c.maxChipW = model.MaxChipPower(nCores)
	}
	c.resIslands = make([]IslandResult, len(c.islands))
	return c, nil
}

// resolveIslandModels derives the chip-level model (the base model scaled
// to cfg.Tech) and the per-island models and classes. On a homogeneous
// chip every island aliases the chip model pointer; heterogeneous chips
// get one specialized model per class (shared by islands of that class).
func resolveIslandModels(cfg Config) (*power.Model, []*power.Model, []power.CoreClass, error) {
	base := cfg.Power
	if base == nil {
		base = power.DefaultModel()
	}
	if err := cfg.Tech.Validate(); err != nil {
		return nil, nil, nil, err
	}
	chipModel, err := power.ScaleModel(base, cfg.Tech)
	if err != nil {
		return nil, nil, nil, err
	}
	nIslands := len(cfg.Mix.Islands)
	classes := make([]power.CoreClass, nIslands)
	if cfg.IslandClasses != nil {
		if len(cfg.IslandClasses) != nIslands {
			return nil, nil, nil, fmt.Errorf("sim: %d island classes for %d islands", len(cfg.IslandClasses), nIslands)
		}
		copy(classes, cfg.IslandClasses)
	}
	models := make([]*power.Model, nIslands)
	byClass := map[power.CoreClass]*power.Model{}
	for i, class := range classes {
		m, ok := byClass[class]
		if !ok {
			m, err = power.ModelForClass(chipModel, class)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("sim: island %d: %w", i, err)
			}
			byClass[class] = m
		}
		models[i] = m
	}
	return chipModel, models, classes, nil
}

// islandCoreConfig specializes the chip-wide core configuration to one
// island: a non-OoO class replaces the pipeline preset, and once the tech
// or class axis is in play the island table's top frequency becomes the
// utilization denominator. The legacy path (no tech, OoO class) returns
// cfg.Core untouched so existing chips keep their exact record streams.
func islandCoreConfig(cfg Config, class power.CoreClass, table *power.DVFSTable) (uarch.Config, error) {
	if !cfg.Tech.Enabled() && class == power.ClassOoO {
		return cfg.Core, nil
	}
	cc := cfg.Core
	if class != power.ClassOoO {
		params, err := uarch.ParamsForClass(class)
		if err != nil {
			return uarch.Config{}, err
		}
		cc.Params = params
	}
	cc.NominalMaxMHz = table.Max().FreqMHz
	return cc, nil
}

// islandL2 builds an island's shared banked L2 when cfg.SharedL2 is set:
// one bank per core (rounded up to a power of two), each bank holding the
// Table I per-core share of 512 KB. Returns nil for private slices.
func islandL2(cfg Config, islandCores int) (*cache.Banked, error) {
	if !cfg.SharedL2 {
		return nil, nil
	}
	banks := 1
	for banks < islandCores {
		banks *= 2
	}
	return cache.NewBanked(cache.TableIL2PerCore(), banks)
}

// coreHierarchy builds one core's cache hierarchy, wiring the island's
// shared L2 when present and otherwise a private slice with the configured
// prefetcher.
func coreHierarchy(cfg Config, shared *cache.Banked) (*cache.Hierarchy, error) {
	l1i, err := cache.New(cache.TableIL1())
	if err != nil {
		return nil, err
	}
	l1d, err := cache.New(cache.TableIL1())
	if err != nil {
		return nil, err
	}
	var l2 cache.Level2
	if shared != nil {
		l2 = shared
	} else {
		priv, err := cache.New(cache.TableIL2PerCore())
		if err != nil {
			return nil, err
		}
		l2 = priv
		if cfg.L2PrefetchDegree > 0 {
			pf, err := cache.NewStreamPrefetcher(priv, cfg.L2PrefetchDegree, 16)
			if err != nil {
				return nil, err
			}
			l2 = pf
		}
	}
	return cache.NewHierarchy(l1i, l1d, l2)
}

// floorplanFor returns a near-square grid containing exactly n cores.
func floorplanFor(n int) (thermal.Floorplan, error) {
	rows := 1
	for rows*rows < n {
		rows++
	}
	for n%rows != 0 {
		rows--
	}
	return thermal.Grid(rows, n/rows)
}

// NumIslands returns the island count.
func (c *CMP) NumIslands() int { return len(c.islands) }

// NumCores returns the chip's core count.
func (c *CMP) NumCores() int { return c.nCores }

// Table is the legacy chip-global accessor: it returns the DVFS table
// shared by all islands, and panics on a heterogeneous chip, where no such
// table exists — a caller reaching it there is a bug that would silently
// mis-size every per-island computation. Use IslandTable.
func (c *CMP) Table() *power.DVFSTable {
	if c.Heterogeneous() {
		panic("sim: heterogeneous chip has no chip-global DVFS table; use IslandTable")
	}
	return c.model.Table
}

// Model is the legacy chip-global accessor for the power model, with the
// same contract as Table: it panics on a heterogeneous chip (use
// IslandModel).
func (c *CMP) Model() *power.Model {
	if c.Heterogeneous() {
		panic("sim: heterogeneous chip has no chip-global power model; use IslandModel")
	}
	return c.model
}

// Heterogeneous reports whether any island carries a power model of its
// own rather than aliasing the chip model.
func (c *CMP) Heterogeneous() bool {
	for _, st := range c.islands {
		if st.model != c.model {
			return true
		}
	}
	return false
}

// IslandTable returns island i's own DVFS table. On a homogeneous chip
// this is the chip-global table for every island.
func (c *CMP) IslandTable(i int) *power.DVFSTable { return c.islands[i].model.Table }

// IslandModel returns island i's own power model.
func (c *CMP) IslandModel(i int) *power.Model { return c.islands[i].model }

// IslandClass returns island i's core class.
func (c *CMP) IslandClass(i int) power.CoreClass { return c.islands[i].class }

// Tech returns the chip's technology configuration (zero when unscaled).
func (c *CMP) Tech() power.TechConfig { return c.cfg.Tech }

// IntervalSec returns the simulation interval length.
func (c *CMP) IntervalSec() float64 { return c.cfg.IntervalSec }

// MaxChipPowerW returns the maximum chip power — the denominator of every
// percent-power quantity.
func (c *CMP) MaxChipPowerW() float64 { return c.maxChipW }

// IslandMaxPowerW returns the maximum power of island i.
func (c *CMP) IslandMaxPowerW(i int) float64 { return c.islands[i].maxPowerW }

// IslandCores returns the number of cores on island i.
func (c *CMP) IslandCores(i int) int { return len(c.islands[i].cores) }

// IslandBenchmarks returns the benchmark names running on island i.
func (c *CMP) IslandBenchmarks(i int) []string {
	out := make([]string, len(c.islands[i].cores))
	for j, core := range c.islands[i].cores {
		out[j] = core.Profile().Name
	}
	return out
}

// IslandLeakMult returns the mean process-variation leakage multiplier of
// island i, the observable the variation-aware policy uses.
func (c *CMP) IslandLeakMult(i int) float64 {
	st := c.islands[i]
	s := 0.0
	for _, id := range st.isl.CoreIDs() {
		s += c.varmap.CoreMult(id)
	}
	return s / float64(len(st.cores))
}

// Level returns island i's current DVFS level.
func (c *CMP) Level(i int) int { return c.islands[i].isl.Level() }

// SetLevel requests a DVFS change on island i and reports whether the
// operating point changed.
func (c *CMP) SetLevel(i, lvl int) bool { return c.islands[i].isl.SetLevel(lvl) }

// Transitions returns the cumulative DVFS transition count of island i.
func (c *CMP) Transitions(i int) int { return c.islands[i].isl.Transitions() }

// Thermals exposes the thermal model (read-only use by policies).
func (c *CMP) Thermals() *thermal.Model { return c.thermals }

// TotalInstructions returns cumulative instructions across all cores.
func (c *CMP) TotalInstructions() float64 { return c.totalInstr }

// SetCacheStatsSource sets the supplier CacheStats reads — the sampler
// feeding a NewWithRecords chip (New wires its own sampler). A nil source
// reads as zero counters.
func (c *CMP) SetCacheStatsSource(f func() CacheStats) { c.cacheStatsSrc = f }

// SetIslandCacheStatsSource sets the per-island supplier IslandCacheStats
// reads, the island-resolution twin of SetCacheStatsSource.
func (c *CMP) SetIslandCacheStatsSource(f func(int) CacheStats) { c.islandCacheStatsSrc = f }

// RecordSource returns the source the chip draws its records from — for a
// New chip its own sampler (island-parallel under cfg.Parallel) or replay
// reader. A NewWithRecords chip built on it shares the stream: it must step
// in lockstep with this chip for as long as both step (see RecordSource),
// and may go on alone once this chip stops.
func (c *CMP) RecordSource() RecordSource { return c.src }

// CorePowers copies the previous interval's per-core oracle power (W) into
// dst, which must have NumCores capacity; it returns dst[:NumCores].
// Allocation-free when dst is large enough — the farm layer's column
// extraction path.
func (c *CMP) CorePowers(dst []float64) []float64 {
	return append(dst[:0], c.corePowers...)
}

// CoreCPIs copies the previous interval's per-core effective CPI into dst,
// mirroring CorePowers.
func (c *CMP) CoreCPIs(dst []float64) []float64 {
	return append(dst[:0], c.coreCPIs...)
}

// CoreTemps copies the current per-core temperatures (°C) into dst,
// mirroring CorePowers.
func (c *CMP) CoreTemps(dst []float64) []float64 {
	dst = dst[:0]
	for id := 0; id < c.nCores; id++ {
		dst = append(dst, c.thermals.Temp(id))
	}
	return dst
}

// CoreFreqsMHz copies the current per-core operating frequency into dst,
// mirroring CorePowers (cores of an island share its operating point).
func (c *CMP) CoreFreqsMHz(dst []float64) []float64 {
	dst = dst[:0]
	for _, st := range c.islands {
		f := st.isl.OperatingPoint().FreqMHz
		for range st.cores {
			dst = append(dst, f)
		}
	}
	return dst
}

// CacheStats aggregates cumulative cache counters across the chip, one
// Stats per hierarchy level.
type CacheStats struct {
	L1I cache.Stats
	L1D cache.Stats
	L2  cache.Stats
}

// CacheStats returns the chip's cumulative cache counters from its record
// source's sampler: summed over cores, a shared per-island L2 counted once
// per island. A replay chip, or a NewWithRecords chip without a source,
// reports zero (it re-executes recorded cache behaviour without caches).
// Allocation-free; safe to call between Steps.
func (c *CMP) CacheStats() CacheStats {
	if c.cacheStatsSrc == nil {
		return CacheStats{}
	}
	return c.cacheStatsSrc()
}

// IslandCacheStats returns island i's cumulative cache counters, the
// per-island resolution of CacheStats with identical semantics.
// Allocation-free; safe to call between Steps.
func (c *CMP) IslandCacheStats(i int) CacheStats {
	if c.islandCacheStatsSrc == nil {
		return CacheStats{}
	}
	return c.islandCacheStatsSrc(i)
}

func addCacheStats(dst *cache.Stats, s cache.Stats) {
	dst.Accesses += s.Accesses
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.Evictions += s.Evictions
}

// Step advances the chip by one interval and returns its observation. The
// returned Result's Islands slice is valid until the next Step (see
// Result.Clone).
func (c *CMP) Step() Result {
	// Fetch the interval's records before the island loop so the parallel
	// executor only reads the shared batch.
	c.recs = c.src.Records(c.interval)
	if len(c.recs) != c.nCores {
		panic(fmt.Sprintf("sim: record source supplied %d records for %d cores", len(c.recs), c.nCores))
	}
	if c.recorded != nil {
		for id, rec := range c.recs {
			c.recorded[id] = append(c.recorded[id], rec)
		}
	}
	if c.cfg.Parallel && len(c.islands) > 1 {
		var wg sync.WaitGroup
		for _, st := range c.islands {
			wg.Add(1)
			go func(st *islandState) {
				defer wg.Done()
				c.stepIsland(st)
			}(st)
		}
		wg.Wait()
	} else {
		for _, st := range c.islands {
			c.stepIsland(st)
		}
	}

	// Reduce: chip aggregates and delayed cross-island couplings.
	res := Result{Interval: c.interval, Islands: c.resIslands}
	var blocks uint64
	for i, st := range c.islands {
		res.Islands[i] = st.res
		res.ChipPowerW += st.res.PowerW
		res.TotalBIPS += st.res.BIPS
		c.totalInstr += st.res.Instructions
		blocks += st.memBlocks
		for j, id := range st.isl.CoreIDs() {
			c.corePowers[id] = st.powers[j]
			c.coreCPIs[id] = st.cpis[j]
		}
	}
	res.ChipPowerFrac = res.ChipPowerW / c.maxChipW
	c.memsys.ObserveTraffic(blocks, c.cfg.IntervalSec)
	if c.mesh != nil {
		// One request + one response flit train per block transfer.
		c.mesh.ObserveTraffic(2*blocks, c.cfg.IntervalSec)
	}
	if err := c.thermals.Step(c.corePowers, c.cfg.IntervalSec); err != nil {
		// Construction guarantees matching lengths and a positive interval.
		panic("sim: thermal step failed: " + err.Error())
	}
	res.MaxTempC = c.thermals.MaxTemp()
	c.interval++
	for _, h := range c.stepHooks {
		h(res)
	}
	return res
}

// stepIsland runs one island for one interval, writing only island-local
// state (plus reads of previous-interval global state), so islands may run
// concurrently.
func (c *CMP) stepIsland(st *islandState) {
	overhead := st.isl.ConsumeOverhead()
	op := st.isl.OperatingPoint()
	r := IslandResult{
		Island:       st.isl.ID(),
		Level:        st.isl.Level(),
		FreqMHz:      op.FreqMHz,
		Transitioned: overhead > 0,
	}
	st.memBlocks = 0
	for j, core := range st.cores {
		coreID := st.isl.CoreIDs()[j]
		cs := core.FinishInterval(c.recs[coreID], op.FreqMHz, c.cfg.IntervalSec, overhead)
		act := power.DeriveActivity(cs.Activity)
		pw := st.model.Dynamic.Power(op, act) +
			st.model.Leakage.Power(op.VoltageV, c.thermals.Temp(coreID), c.varmap.CoreMult(coreID))
		st.powers[j] = pw
		st.cpis[j] = cs.CPI
		r.PowerW += pw
		r.MeanUtil += cs.Utilization
		r.BIPS += cs.BIPS
		r.Instructions += cs.Instructions
		st.memBlocks += cs.MemBlocks
	}
	r.MeanUtil /= float64(len(st.cores))
	r.PowerFracIsland = r.PowerW / st.maxPowerW
	r.PowerFracChip = r.PowerW / c.maxChipW
	st.res = r
}

// replaySource is a replay chip's record source: interval k of core id is
// trace[id][k % len(trace[id])]. It keeps no cursor — the chip's interval
// counter is the whole position — so a snapshot needs nothing from it.
type replaySource struct {
	traces [][]uarch.TraceRecord
	recs   []uarch.TraceRecord
}

// newReplaySource validates cfg.Replay against the mix — every core needs a
// non-empty trace recorded from the benchmark the mix assigns it.
func newReplaySource(cfg Config) (*replaySource, error) {
	if err := cfg.Mix.Validate(); err != nil {
		return nil, err
	}
	profiles, err := cfg.Mix.Profiles()
	if err != nil {
		return nil, err
	}
	r := &replaySource{}
	coreID := 0
	for _, islandProfiles := range profiles {
		for _, prof := range islandProfiles {
			bench, ok := cfg.Replay.Benchmarks[coreID]
			if !ok {
				return nil, fmt.Errorf("sim: replay set has no trace for core %d", coreID)
			}
			if bench != prof.Name {
				return nil, fmt.Errorf("sim: core %d trace was recorded from %s, mix assigns %s", coreID, bench, prof.Name)
			}
			trace := cfg.Replay.Records[coreID]
			if len(trace) == 0 {
				return nil, fmt.Errorf("sim: core %d has an empty trace", coreID)
			}
			r.traces = append(r.traces, trace)
			coreID++
		}
	}
	r.recs = make([]uarch.TraceRecord, coreID)
	return r, nil
}

// Records implements RecordSource.
func (r *replaySource) Records(k int) []uarch.TraceRecord {
	for id, trace := range r.traces {
		r.recs[id] = trace[k%len(trace)]
	}
	return r.recs
}

// Traces returns the recorded trace set (RecordTraces must have been set).
func (c *CMP) Traces() (uarch.TraceSet, error) {
	if c.recorded == nil {
		return uarch.TraceSet{}, errors.New("sim: tracing was not enabled")
	}
	set := uarch.TraceSet{
		Benchmarks: map[int]string{},
		Records:    map[int][]uarch.TraceRecord{},
	}
	for _, st := range c.islands {
		for j, core := range st.cores {
			id := st.isl.CoreIDs()[j]
			set.Benchmarks[id] = core.Profile().Name
			set.Records[id] = c.recorded[id]
		}
	}
	return set, nil
}
