package metrics

import (
	"math"
	"strconv"

	"github.com/cpm-sim/cpm/internal/cache"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/pic"
	"github.com/cpm-sim/cpm/internal/sim"
)

// ObserverOptions parameterizes NewObserver.
type ObserverOptions struct {
	// Label is the value of the "run" label on every series the observer
	// writes. Runs sharing a registry should use distinct labels; counters
	// under the same label accumulate across runs.
	Label string
}

// Observer is an engine.Observer that aggregates per-interval and per-epoch
// telemetry of the two-tier control loop into a Registry. It discovers the
// run's chip and, on CPM runs, its PICs from engine.RunInfo: the chip
// enables cache counters and per-level DVFS residency, the PICs the
// controller-state series. All instrument handles are created up front
// (NewObserver / RunStart), so the per-step path performs only atomic
// updates and allocates nothing — the interval loop's 0 allocs/interval
// contract holds with the observer attached.
//
// Step and epoch events are consumed synchronously and nothing handed to
// the observer is retained, so the engine's live-slice contract
// (Step.Sim.Islands and Step.AllocW alias per-chip scratch) is respected.
type Observer struct {
	reg   *Registry
	label string
	chip  *sim.CMP
	pics  []*pic.Controller

	// chip-level series
	intervals      *Counter
	epochs         *Counter
	gpmInvocations *Counter
	chipPower      *Gauge
	chipBIPS       *Gauge
	budget         *Gauge
	maxTemp        *Gauge
	epochPower     *Gauge
	epochBIPS      *Gauge
	budgetResidual *Gauge
	powerFracHist  *Histogram
	trackErrHist   *Histogram

	// per-island series, indexed by island
	islAlloc  []*Gauge
	islPower  []*Gauge
	islBIPS   []*Gauge
	islLevel  []*Gauge
	islTrans  []*Counter
	residency [][]*Counter // [island][level], nil without a chip

	picInteg  []*Gauge
	picFreq   []*Gauge
	picTarget []*Gauge
	// Adaptive-mode series, populated only when the controllers run the
	// adaptive-gain estimator (nil slices otherwise — fixed-gain runs
	// export no estimator telemetry at all).
	picScale   []*Gauge
	picGainEst []*Gauge
	picEst     []*Gauge

	// cache series, indexed l1i/l1d/l2
	cacheHits     [3]*Counter
	cacheMisses   [3]*Counter
	cacheMissRate [3]*Gauge
	prevCache     sim.CacheStats

	peakTempC float64
}

// cacheLevelNames label the three cache series.
var cacheLevelNames = [3]string{"l1i", "l1d", "l2"}

// NewObserver builds an observer writing into reg under opts.Label. Families
// are registered (or found — registries are shared across runs) immediately;
// per-island, chip and PIC series at RunStart from the session's RunInfo.
func NewObserver(reg *Registry, opts ObserverOptions) *Observer {
	o := &Observer{reg: reg, label: opts.Label}

	o.intervals = reg.CounterVec("cpm_intervals_total",
		"Simulated PIC intervals, warmup included.", "run").With(o.label)
	o.epochs = reg.CounterVec("cpm_epochs_total",
		"Measured GPM epochs.", "run").With(o.label)
	o.gpmInvocations = reg.CounterVec("cpm_gpm_invocations_total",
		"GPM provisioning invocations (epoch boundaries with measurements).", "run").With(o.label)
	o.chipPower = reg.GaugeVec("cpm_chip_power_watts",
		"Chip power of the latest interval.", "run").With(o.label)
	o.chipBIPS = reg.GaugeVec("cpm_chip_bips",
		"Chip instruction throughput of the latest interval (BIPS).", "run").With(o.label)
	o.budget = reg.GaugeVec("cpm_budget_watts",
		"Chip power budget (0 when unmanaged).", "run").With(o.label)
	o.maxTemp = reg.GaugeVec("cpm_max_temp_celsius",
		"Peak die temperature seen so far in the run.", "run").With(o.label)
	o.epochPower = reg.GaugeVec("cpm_epoch_mean_power_watts",
		"Mean chip power of the latest measured epoch.", "run").With(o.label)
	o.epochBIPS = reg.GaugeVec("cpm_epoch_mean_bips",
		"Mean chip throughput of the latest measured epoch.", "run").With(o.label)
	o.budgetResidual = reg.GaugeVec("cpm_epoch_budget_residual_watts",
		"Latest epoch's mean power minus the budget (negative = headroom).", "run").With(o.label)
	o.powerFracHist = reg.HistogramVec("cpm_interval_power_frac",
		"Per-interval chip power as a fraction of maximum chip power.",
		LinearBuckets(0.05, 0.05, 19), "run").With(o.label)
	o.trackErrHist = reg.HistogramVec("cpm_pic_tracking_error_frac",
		"Per-invocation PIC tracking error |target − estimate| in island-max-power fractions.",
		ExponentialBuckets(0.005, 2, 8), "run").With(o.label)

	o.peakTempC = math.Inf(-1)
	return o
}

// ensureIslands creates the per-island series for islands [len(islAlloc), n).
// Idempotent; called from RunStart, never on the step path.
func (o *Observer) ensureIslands(n int) {
	allocV := o.reg.GaugeVec("cpm_island_alloc_watts",
		"GPM-provisioned power of the island.", "run", "island")
	powerV := o.reg.GaugeVec("cpm_island_power_watts",
		"Measured island power (epoch mean).", "run", "island")
	bipsV := o.reg.GaugeVec("cpm_island_bips",
		"Island instruction throughput (epoch mean).", "run", "island")
	levelV := o.reg.GaugeVec("cpm_island_level",
		"Island DVFS level of the latest interval.", "run", "island")
	transV := o.reg.CounterVec("cpm_island_transitions_total",
		"Intervals that paid a DVFS transition overhead.", "run", "island")
	for i := len(o.islAlloc); i < n; i++ {
		is := strconv.Itoa(i)
		o.islAlloc = append(o.islAlloc, allocV.With(o.label, is))
		o.islPower = append(o.islPower, powerV.With(o.label, is))
		o.islBIPS = append(o.islBIPS, bipsV.With(o.label, is))
		o.islLevel = append(o.islLevel, levelV.With(o.label, is))
		o.islTrans = append(o.islTrans, transV.With(o.label, is))
	}
}

// initChip creates the chip-dependent series: per-level DVFS residency
// counters (the table depth comes from the chip) and cache counters.
func (o *Observer) initChip(chip *sim.CMP) {
	o.chip = chip
	resV := o.reg.CounterVec("cpm_island_level_residency_intervals_total",
		"Intervals the island spent at each DVFS level.", "run", "island", "level")
	o.residency = make([][]*Counter, chip.NumIslands())
	for i := range o.residency {
		// Each island's counter cardinality is its *own* table depth — on a
		// heterogeneous chip islands legitimately differ.
		levels := chip.IslandTable(i).Levels()
		is := strconv.Itoa(i)
		o.residency[i] = make([]*Counter, levels)
		for l := 0; l < levels; l++ {
			o.residency[i][l] = resV.With(o.label, is, strconv.Itoa(l))
		}
	}

	hitsV := o.reg.CounterVec("cpm_cache_hits_total",
		"Cache hits by hierarchy level.", "run", "level")
	missesV := o.reg.CounterVec("cpm_cache_misses_total",
		"Cache misses by hierarchy level.", "run", "level")
	rateV := o.reg.GaugeVec("cpm_cache_miss_rate",
		"Cumulative cache miss rate by hierarchy level (NaN until the level is accessed).", "run", "level")
	for k, name := range cacheLevelNames {
		o.cacheHits[k] = hitsV.With(o.label, name)
		o.cacheMisses[k] = missesV.With(o.label, name)
		o.cacheMissRate[k] = rateV.With(o.label, name)
	}
	o.prevCache = chip.CacheStats()
}

// initPICs subscribes the tracking-error hook on every controller and
// creates the controller-state gauges; no PICs clears them.
func (o *Observer) initPICs(pics []*pic.Controller) {
	o.pics = pics
	o.picInteg, o.picFreq, o.picTarget = nil, nil, nil
	o.picScale, o.picGainEst, o.picEst = nil, nil, nil
	if len(pics) == 0 {
		return
	}
	integV := o.reg.GaugeVec("cpm_pic_integrator",
		"PID integral accumulator of the island's controller.", "run", "island")
	freqV := o.reg.GaugeVec("cpm_pic_freq_norm",
		"Controller's continuous normalized frequency state.", "run", "island")
	targetV := o.reg.GaugeVec("cpm_pic_target_frac",
		"Provisioned budget as a fraction of island max power.", "run", "island")
	estV := o.reg.GaugeVec("cpm_pic_est_power_frac",
		"Smoothed feedback power estimate as a fraction of island max power.", "run", "island")
	var scaleV, gainV *GaugeVec
	if o.pics[0].Adaptive() {
		scaleV = o.reg.GaugeVec("cpm_pic_gain_scale",
			"Adaptive-gain rescale factor applied to the design PID gains (1 = design gains).", "run", "island")
		gainV = o.reg.GaugeVec("cpm_pic_plant_gain_est",
			"RLS estimate of the island plant gain dP/df (power fraction per normalized frequency).", "run", "island")
	}
	for i, p := range o.pics {
		is := strconv.Itoa(i)
		o.picInteg = append(o.picInteg, integV.With(o.label, is))
		o.picFreq = append(o.picFreq, freqV.With(o.label, is))
		o.picTarget = append(o.picTarget, targetV.With(o.label, is))
		if scaleV != nil {
			o.picScale = append(o.picScale, scaleV.With(o.label, is))
			o.picGainEst = append(o.picGainEst, gainV.With(o.label, is))
		}
		est := estV.With(o.label, is)
		o.picEst = append(o.picEst, est)
		hist := o.trackErrHist
		p.AddInvokeHook(func(targetFrac, estFrac float64, _ int) {
			est.Set(estFrac)
			hist.Observe(math.Abs(targetFrac - estFrac))
		})
	}
}

// RunStart implements engine.Observer.
func (o *Observer) RunStart(info engine.RunInfo) {
	o.ensureIslands(info.Islands)
	o.chip, o.residency = nil, nil
	if info.Chip != nil {
		o.initChip(info.Chip)
	}
	o.initPICs(info.PICs)
	o.budget.Set(info.BudgetW)
	o.peakTempC = math.Inf(-1)
}

// ObserveStep implements engine.Observer. Allocation-free.
func (o *Observer) ObserveStep(st engine.Step) {
	o.intervals.Inc()
	o.chipPower.Set(st.Sim.ChipPowerW)
	o.chipBIPS.Set(st.Sim.TotalBIPS)
	o.powerFracHist.Observe(st.Sim.ChipPowerFrac)
	if st.Sim.MaxTempC > o.peakTempC {
		o.peakTempC = st.Sim.MaxTempC
		o.maxTemp.Set(o.peakTempC)
	}
	if st.GPMInvoked {
		o.gpmInvocations.Inc()
	}
	for i := range st.Sim.Islands {
		if i >= len(o.islLevel) {
			break
		}
		ir := &st.Sim.Islands[i]
		o.islLevel[i].Set(float64(ir.Level))
		if ir.Transitioned {
			o.islTrans[i].Inc()
		}
		if o.residency != nil && ir.Level >= 0 && ir.Level < len(o.residency[i]) {
			o.residency[i][ir.Level].Inc()
		}
	}
	for i := range st.AllocW {
		if i >= len(o.islAlloc) {
			break
		}
		o.islAlloc[i].Set(st.AllocW[i])
	}
	for i, p := range o.pics {
		o.picInteg[i].Set(p.Integrator())
		o.picFreq[i].Set(p.FreqNorm())
		o.picTarget[i].Set(p.TargetFrac())
		if o.picScale != nil {
			o.picScale[i].Set(p.GainScale())
			o.picGainEst[i].Set(p.PlantGainEstimate())
		}
	}
	if o.chip != nil {
		cur := o.chip.CacheStats()
		o.observeCacheDelta(0, cur.L1I, o.prevCache.L1I)
		o.observeCacheDelta(1, cur.L1D, o.prevCache.L1D)
		o.observeCacheDelta(2, cur.L2, o.prevCache.L2)
		o.prevCache = cur
	}
}

// observeCacheDelta folds one level's counter delta into its series. The
// miss-rate gauge carries the cumulative rate — cache.Stats.MissRate's NaN
// sentinel for a zero-access level flows through on purpose; the JSON
// exporter encodes it as null, the Prometheus text format natively.
func (o *Observer) observeCacheDelta(k int, cur, prev cache.Stats) {
	o.cacheHits[k].Add(float64(cur.Hits - prev.Hits))
	o.cacheMisses[k].Add(float64(cur.Misses - prev.Misses))
	o.cacheMissRate[k].Set(cur.MissRate())
}

// ObserveEpoch implements engine.Observer.
func (o *Observer) ObserveEpoch(e engine.Epoch) {
	o.epochs.Inc()
	o.epochPower.Set(e.MeanPowerW)
	o.epochBIPS.Set(e.MeanBIPS)
	if e.BudgetW > 0 {
		o.budgetResidual.Set(e.MeanPowerW - e.BudgetW)
	}
	for i := range e.AllocW {
		if i >= len(o.islAlloc) {
			break
		}
		o.islAlloc[i].Set(e.AllocW[i])
	}
	for i := range e.IslandPowerW {
		if i >= len(o.islPower) {
			break
		}
		o.islPower[i].Set(e.IslandPowerW[i])
	}
	for i := range e.IslandBIPS {
		if i >= len(o.islBIPS) {
			break
		}
		o.islBIPS[i].Set(e.IslandBIPS[i])
	}
}

// RunEnd implements engine.Observer.
func (o *Observer) RunEnd(sum *engine.Summary) {
	if sum == nil {
		return
	}
	if sum.MaxTempC > o.peakTempC {
		o.peakTempC = sum.MaxTempC
		o.maxTemp.Set(o.peakTempC)
	}
}
