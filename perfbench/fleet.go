package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/farm"
	"github.com/cpm-sim/cpm/internal/maxbips"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/workload"
)

// fleet-sweep is a closed loop with one client over `cpmsweep`'s farm
// route at fleet size: each sweep calibrates once on a fresh seed, then
// runs one unmanaged chip plus a CPM and a MaxBIPS chip per budget point,
// every chip under its invariant suite, as one farm on a pool of nproc
// workers. All chips share one workload key, so they form one sampler
// group; the sampler is a minor share of a round and the compute half,
// control and observers dominate.
const (
	fleetPoints  = 500 // budget points, evenly spaced over [0.5, 0.95]
	fleetWarm    = 6   // cpmsweep's default warm-up epochs
	fleetMeasure = 16  // cpmsweep's default measured epochs

	fleetIntervals = (fleetWarm + fleetMeasure) * epochIntervals // per chip
)

func fleetFracs() []float64 {
	fr := make([]float64, fleetPoints)
	for i := range fr {
		fr[i] = 0.5 + 0.45*float64(i)/float64(fleetPoints-1)
	}
	return fr
}

// fleetConfig is the sweep's chip: Mix-1 on the given seed with cpmsweep's
// defaults, islands stepped in parallel as cpmsweep steps them.
func fleetConfig(seed uint64) sim.Config {
	cfg := sim.DefaultConfig(workload.Mix1())
	cfg.Seed = seed
	cfg.Parallel = true
	return cfg
}

// memberTrace collects one farm member's layer spans. A member is stepped
// only by the worker that owns its group, so no locking is needed; the
// traces are merged after the run.
type memberTrace struct {
	start, picMark, mark     time.Time
	chip, control, observers span
	cpm                      bool
}

// timedRunner marks the start of each runner step.
type timedRunner struct {
	engine.Runner
	t *memberTrace
}

func (r timedRunner) Step() engine.Step {
	r.t.start = time.Now()
	return r.Runner.Step()
}

// chipDone is the chip's step hook. A CPM member's step begins with GPM
// provisioning and PIC invocations; the last PIC hook of the step marks
// where the chip took over. Everything after the chip step up to the last
// observer counts as observers, as on scenario-all.
func (t *memberTrace) chipDone(sim.Result) {
	now := time.Now()
	chipStart := t.start
	if t.cpm && t.picMark.After(chipStart) {
		chipStart = t.picMark
	}
	t.chip.add(now.Sub(chipStart))
	if t.cpm {
		t.control.add(chipStart.Sub(t.start))
	}
	t.mark = now
}

// observe is the last-position observer: everything between the end of the
// chip step and here is the session's observers.
func (t *memberTrace) observe() engine.Observer {
	tick := func() {
		now := time.Now()
		t.observers.busy += now.Sub(t.mark)
		t.mark = now
	}
	return engine.Funcs{
		OnStep:  func(engine.Step) { t.observers.calls++; tick() },
		OnEpoch: func(engine.Epoch) { tick() },
	}
}

// sweep is one built fleet.
type sweep struct {
	f       *farm.Farm
	suites  []*check.Suite
	chips   []*sim.CMP
	traces  []*memberTrace
	budgets []float64 // per budget point, watts
}

// buildSweep lays the fleet out as cpmsweep's farm route does: point 0 is
// the unmanaged baseline, then a CPM and a MaxBIPS chip per budget.
func buildSweep(cfg sim.Config, cal core.Calibration, traced bool) (*sweep, error) {
	fracs := fleetFracs()
	n := 1 + 2*len(fracs)
	s := &sweep{suites: make([]*check.Suite, n), chips: make([]*sim.CMP, n), budgets: make([]float64, len(fracs))}
	if traced {
		s.traces = make([]*memberTrace, n)
	}
	observers := func(i int, suite *check.Suite) []engine.Observer {
		s.suites[i] = suite
		obs := []engine.Observer{suite}
		if traced {
			obs = append(obs, s.traces[i].observe())
		}
		return obs
	}
	runner := func(i int, r engine.Runner) engine.Runner {
		if !traced {
			return r
		}
		t := s.traces[i]
		r.Chip().AddStepHook(t.chipDone)
		return timedRunner{Runner: r, t: t}
	}
	specs := make([]farm.ChipSpec, 0, n)
	bcfg := cfg
	bcfg.InitialLevel = -1
	specs = append(specs, farm.ChipSpec{
		Config: bcfg,
		NewSession: func(cmp *sim.CMP) (*engine.Session, error) {
			s.chips[0] = cmp
			if traced {
				s.traces[0] = &memberTrace{}
			}
			return engine.NewSession(runner(0, engine.NewChipRunner(cmp)), engine.SessionConfig{
				WarmEpochs: fleetWarm, MeasureEpochs: fleetMeasure, Label: "unmanaged",
			}, observers(0, check.All(check.ForChip(cmp, 0)))...)
		},
	})
	for pi, frac := range fracs {
		budget := cal.BudgetW(frac)
		s.budgets[pi] = budget
		iCPM, iMB := 1+2*pi, 2+2*pi
		specs = append(specs, farm.ChipSpec{
			Config: cfg,
			NewSession: func(cmp *sim.CMP) (*engine.Session, error) {
				s.chips[iCPM] = cmp
				ctl, err := core.New(cmp, core.Config{BudgetW: budget, Transducers: cal.Transducers})
				if err != nil {
					return nil, err
				}
				if traced {
					t := &memberTrace{cpm: true}
					s.traces[iCPM] = t
					for isl := 0; isl < cmp.NumIslands(); isl++ {
						ctl.PIC(isl).AddInvokeHook(func(_, _ float64, _ int) { t.picMark = time.Now() })
					}
				}
				return engine.NewSession(runner(iCPM, engine.NewCPMRunner(ctl)), engine.SessionConfig{
					WarmEpochs: fleetWarm, MeasureEpochs: fleetMeasure, BudgetW: budget, Label: "cpm",
				}, observers(iCPM, check.ForCPM(ctl, budget))...)
			},
		})
		specs = append(specs, farm.ChipSpec{
			Config: cfg,
			NewSession: func(cmp *sim.CMP) (*engine.Session, error) {
				s.chips[iMB] = cmp
				planner, err := engine.NewStaticPlanner(cmp)
				if err != nil {
					return nil, err
				}
				r, err := engine.NewMaxBIPSRunner(cmp, planner, budget, epochIntervals)
				if err != nil {
					return nil, err
				}
				if traced {
					s.traces[iMB] = &memberTrace{}
				}
				// Open-loop MaxBIPS overshoots realized power by design;
				// cpmsweep widens its budget tolerances the same way.
				ccfg := check.ForChip(cmp, budget)
				ccfg.BudgetTolFrac = 0.25
				ccfg.IslandTolFrac = 0.25
				return engine.NewSession(runner(iMB, r), engine.SessionConfig{
					WarmEpochs: fleetWarm, MeasureEpochs: fleetMeasure, BudgetW: budget, Label: "maxbips",
				}, observers(iMB, check.All(ccfg))...)
			},
		})
	}
	f, err := farm.New(specs, farm.Options{})
	if err != nil {
		return nil, err
	}
	s.f = f
	return s, nil
}

// fleetOutcome is one finished sweep.
type fleetOutcome struct {
	// calibrate, setup and run are process CPU times; runWall is the run's
	// wall time.
	calibrate, setup, run, runWall time.Duration
	sums                           []engine.Summary
	violations                     int
}

// runSweep calibrates, builds and runs one sweep. Traced sweeps step the
// farm one timed round at a time and record member spans into l.
func runSweep(c config, seed uint64, l *layers) (*fleetOutcome, *sweep, error) {
	traced := l != nil
	cfg := fleetConfig(seed)
	pool := engine.Pool{Workers: c.workers}
	out := &fleetOutcome{}
	// Each cpmsweep invocation starts on a fresh heap; collect the previous
	// sweep's fleet before this one is timed.
	runtime.GC()
	t0, c0 := time.Now(), cpuNow()
	cal, err := core.Calibrate(cfg, 60, 240)
	if err != nil {
		return nil, nil, err
	}
	t1, c1 := time.Now(), cpuNow()
	s, err := buildSweep(cfg, cal, traced)
	if err != nil {
		return nil, nil, err
	}
	t2, c2 := time.Now(), cpuNow()
	if traced {
		for k := 0; k < fleetIntervals; k++ {
			rs := time.Now()
			if err := s.f.RunRounds(pool, 1); err != nil {
				return nil, nil, err
			}
			l.farmRound.add(time.Since(rs))
		}
		out.sums, err = s.f.Finish(pool, nil)
	} else {
		out.sums, err = s.f.Run(pool, nil)
	}
	if err != nil {
		return nil, nil, err
	}
	t3, c3 := time.Now(), cpuNow()
	out.calibrate, out.setup, out.run, out.runWall = c1-c0, c2-c1, c3-c2, t3.Sub(t2)
	for _, suite := range s.suites {
		out.violations += len(suite.Violations())
	}
	if traced {
		l.calibrate.add(t1.Sub(t0))
		l.farmSetup.add(t2.Sub(t1))
		l.tracedWall += t3.Sub(t0)
		for _, t := range s.traces {
			l.compute.merge(&t.chip)
			l.control.merge(&t.control)
			l.observers.merge(&t.observers)
		}
		// The farm's sampler runs inside the first member's chip step each
		// round. Its cost is measured by driving a standalone sampler of the
		// same configuration over the same intervals, and taken out of the
		// chip steps to leave the compute half.
		smp, err := sim.NewSampler(cfg)
		if err != nil {
			return nil, nil, err
		}
		for k := 0; k < fleetIntervals; k++ {
			ts := time.Now()
			smp.Records(k)
			l.sampler.add(time.Since(ts))
		}
		if err := replayMaxBIPSPlanning(s, l); err != nil {
			return nil, nil, err
		}
	}
	return out, s, nil
}

// replayMaxBIPSPlanning measures the MaxBIPS members' planning. It runs
// inside their chip-step spans, where no hook marks the point the chip takes
// over. The static planner's choice depends only on the budget and the
// island count, so it is replayed on a standalone planner of the same chip
// for every MaxBIPS member's budget and planning interval (every epoch
// boundary after the first epoch), counted as maxbips.control and taken out
// of the chip steps with the sampler.
func replayMaxBIPSPlanning(s *sweep, l *layers) error {
	planner, err := engine.NewStaticPlanner(s.chips[2])
	if err != nil {
		return err
	}
	obs := make([]maxbips.IslandObs, s.chips[2].NumIslands())
	plans := fleetIntervals/epochIntervals - 1
	t0 := time.Now()
	for _, budget := range s.budgets {
		for k := 0; k < plans; k++ {
			planner.Choose(budget, obs)
		}
	}
	l.maxbips.busy += time.Since(t0)
	l.maxbips.calls += len(s.budgets) * fleetIntervals
	return nil
}

func (m *model) addSweep(out *fleetOutcome, s *sweep) {
	for _, sum := range out.sums {
		m.addRun(sum.MeanBIPS, sum.MeanPowerW, sum.WorstEpochOver)
	}
	for _, cmp := range s.chips {
		for i := 0; i < cmp.NumIslands(); i++ {
			m.transitions += cmp.Transitions(i)
		}
	}
	cs := s.f.GroupSampler(0).CacheStats()
	m.l2Acc += cs.L2.Accesses
	m.l2Miss += cs.L2.Misses
}

func runFleetSweep(c config) (*report, error) {
	rep := &report{}
	e := &endToEnd{}
	l := newLayers()
	chipsPerSweep := float64(1 + 2*fleetPoints)
	minSweeps := 1
	if c.trace {
		minSweeps = 2 // at least one untraced and one traced sweep
	}
	var sweeps, runs []float64 // CPU seconds per sweep, with and without calibration
	start := time.Now()
	for i := 0; i < minSweeps || time.Since(start) < c.dur; i++ {
		seed := opSeed(c.seed, i)
		// A traced run alternates untraced and traced sweeps; the untraced
		// ones are the base of the tracing overhead.
		var lt *layers
		if c.trace && i%2 == 1 {
			lt = l
		}
		out, s, err := runSweep(c, seed, lt)
		if err != nil {
			rep.op(fmt.Sprintf("sweep seed %d: %v", seed, err))
			continue
		}
		var probs []string
		if out.violations > 0 {
			probs = append(probs, fmt.Sprintf("sweep seed %d: %d invariant violations", seed, out.violations))
		}
		rep.op(probs...)
		l.violations += out.violations
		if i == 0 {
			l.model.addSweep(out, s)
		}
		if c.trace {
			if lt != nil {
				l.traced = append(l.traced, out.runWall.Seconds())
			} else {
				l.untraced = append(l.untraced, out.runWall.Seconds())
			}
			continue
		}
		e.setup = append(e.setup, out.setup.Seconds())
		sweeps = append(sweeps, (out.calibrate + out.setup + out.run).Seconds())
		runs = append(runs, (out.setup + out.run).Seconds())
	}
	if c.trace {
		// The standalone sampler and planner stood in for the farm's; the
		// chip steps that included them keep only the compute half.
		l.compute.busy -= l.sampler.busy + l.maxbips.busy
		l.emit(rep)
		return rep, nil
	}
	e.cold, e.warm = percentile(sweeps, 50), percentile(runs, 50)
	e.opsPerS = ratio(1, e.cold)
	e.intervalsPerS = ratio(calibrationIntervals+chipsPerSweep*fleetIntervals, e.cold)
	e.emit(rep)
	return rep, nil
}
