package main

import (
	"fmt"
	"time"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/uarch"
)

// scenario-all is `cpmsim scenario all` in-process, as a closed loop with
// one client: every pass runs the eleven canonical scenarios on one fresh
// seed, each under its invariant suite with a golden digest recorder. The
// first pass runs the golden seed 1 and is checked against the pinned
// traces. Per pass, five scenarios are the first of their calibration
// identity and miss the process calibration cache (cold); the other six hit
// it (warm). The cache is left to grow across passes as it does in any
// long-lived process.

// calIdentity names the inputs a scenario's calibration depends on: the
// workload mix, whether process variation is applied, the seed, the
// technology node and the island core classes. A scenario is cold when it
// is the first of its identity in the process.
func calIdentity(sc check.Scenario, seed uint64) string {
	cfg := sc.BuildConfig(seed)
	return fmt.Sprintf("%s/var=%d/seed=%d/tech=%s/classes=%v",
		cfg.Mix.Name, sc.Variation.Len(), seed, cfg.Tech, cfg.IslandClasses)
}

// scenarioSeed is the seed of pass i: the golden seed first, then fresh
// seeds derived from the workload seed.
func scenarioSeed(base uint64, pass int) uint64 {
	if pass == 0 {
		return 1
	}
	return opSeed(base, pass)
}

// scenarioOutcome is one finished scenario run.
type scenarioOutcome struct {
	sum        engine.Summary
	trace      check.Trace
	violations int
	cmp        *sim.CMP
}

// verify returns the run's failures: invariant violations and, on the golden
// seed, any divergence from the pinned trace.
func (o scenarioOutcome) verify(name string, seed uint64, goldens map[string]check.Trace) []string {
	var probs []string
	if o.violations > 0 {
		probs = append(probs, fmt.Sprintf("scenario %s seed %d: %d invariant violations", name, seed, o.violations))
	}
	if seed == 1 {
		if err := o.trace.Diff(goldens[name]); err != nil {
			probs = append(probs, err.Error())
		}
	}
	return probs
}

// liveTimes are one live run's times: the chip construction and the whole
// run in process CPU time, and the session alone in wall time.
type liveTimes struct {
	setup, total time.Duration // CPU
	run          time.Duration // wall
}

// runLive runs one scenario exactly as `cpmsim scenario` does (Build is
// sim.New plus BuildOn), timing the chip construction separately.
func runLive(sc check.Scenario, seed uint64) (out scenarioOutcome, t liveTimes, err error) {
	c0 := cpuNow()
	cmp, err := sim.New(sc.BuildConfig(seed))
	if err != nil {
		return out, t, err
	}
	c1 := cpuNow()
	g := check.NewGolden(sc.Name)
	sess, suite, err := sc.BuildOn(cmp, seed, g)
	if err != nil {
		return out, t, err
	}
	w0 := time.Now()
	out.sum = sess.Run()
	t.run = time.Since(w0)
	t.setup, t.total = c1-c0, cpuNow()-c0
	out.trace = g.Trace()
	out.violations = len(suite.Violations())
	out.cmp = cmp
	return out, t, nil
}

func (m *model) addScenario(o scenarioOutcome) {
	m.addRun(o.sum.MeanBIPS, o.sum.MeanPowerW, o.sum.WorstEpochOver)
	cs := o.cmp.CacheStats()
	m.l2Acc += cs.L2.Accesses
	m.l2Miss += cs.L2.Misses
	for i := 0; i < o.cmp.NumIslands(); i++ {
		m.transitions += o.cmp.Transitions(i)
	}
}

func runScenarioAll(c config) (*report, error) {
	goldens, err := loadGoldens(c.root)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	e := &endToEnd{}
	l := newLayers()
	seen := map[string]bool{}
	cold, warm := byKind{}, byKind{}
	var passIntervals float64 // chip-intervals of one pass, calibrations included
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < c.dur; pass++ {
		seed := scenarioSeed(c.seed, pass)
		for _, sc := range check.Canonical() {
			id := calIdentity(sc, seed)
			isCold := !seen[id]
			seen[id] = true
			if c.trace {
				tracedScenario(rep, l, sc, seed, isCold, goldens)
				continue
			}
			out, t, err := runLive(sc, seed)
			if err != nil {
				rep.op(fmt.Sprintf("scenario %s seed %d: %v", sc.Name, seed, err))
				continue
			}
			rep.op(out.verify(sc.Name, seed, goldens)...)
			e.setup = append(e.setup, t.setup.Seconds())
			if isCold {
				cold.add(sc.Name, t.total.Seconds())
			} else {
				warm.add(sc.Name, t.total.Seconds())
			}
			if pass == 0 {
				passIntervals += scenarioIntervals(sc)
				if isCold {
					passIntervals += calibrationIntervals
				}
			}
		}
	}
	if c.trace {
		l.emit(rep)
		return rep, nil
	}
	// Throughput is that of a typical pass: every scenario at its median
	// CPU time, which one slow pass does not drag down.
	pass := cold.sumMedians() + warm.sumMedians()
	e.cold, e.warm = cold.meanMedian(), warm.meanMedian()
	e.opsPerS = ratio(float64(len(check.Canonical())), pass)
	e.intervalsPerS = ratio(passIntervals, pass)
	e.emit(rep)
	return rep, nil
}

// scenarioIntervals is the length of sc's session in chip-intervals.
func scenarioIntervals(sc check.Scenario) float64 {
	w, m := sc.Defaults()
	return float64((w + m) * epochIntervals)
}

// stepMarks are the timestamps one traced interval leaves at the layer
// boundaries, plus the sampler time inside it.
type stepMarks struct {
	chipStart, chipEnd, observed time.Time
	sampler                      time.Duration
}

// timedSource is the traced run's record source: a private sampler whose
// Records calls are timed. Entry into Records is also the start of the chip
// step, which fetches its records before any compute.
type timedSource struct {
	s *sim.Sampler
	m *stepMarks
}

func (t timedSource) Records(k int) []uarch.TraceRecord {
	t0 := time.Now()
	recs := t.s.Records(k)
	t.m.chipStart = t0
	t.m.sampler += time.Since(t0)
	return recs
}

// buildTraced assembles sc on a record-driven chip fed by a timed private
// sampler, with the golden recorder and a last-position observer marking
// the end of each interval's observers.
func buildTraced(sc check.Scenario, seed uint64, m *stepMarks) (*engine.Session, *check.Suite, *check.Golden, *sim.CMP, error) {
	cfg := sc.BuildConfig(seed)
	sampler, err := sim.NewSampler(cfg)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	cmp, err := sim.NewWithRecords(cfg, timedSource{s: sampler, m: m})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	cmp.SetCacheStatsSource(sampler.CacheStats)
	cmp.SetIslandCacheStatsSource(sampler.IslandCacheStats)
	cmp.AddStepHook(func(sim.Result) { m.chipEnd = time.Now() })
	g := check.NewGolden(sc.Name)
	mark := func() { m.observed = time.Now() }
	last := engine.Funcs{
		OnStep:  func(engine.Step) { mark() },
		OnEpoch: func(engine.Epoch) { mark() },
	}
	sess, suite, err := sc.BuildOn(cmp, seed, g, last)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return sess, suite, g, cmp, nil
}

// tracedScenario runs sc twice on the same seed: first traced through a
// record-driven chip, then untraced as runLive does. The two golden traces
// must be identical; the untraced run is also the base of the tracing
// overhead. The traced build absorbs the calibration when sc is cold.
func tracedScenario(rep *report, l *layers, sc check.Scenario, seed uint64, cold bool, goldens map[string]check.Trace) {
	fail := func(err error) { rep.op(fmt.Sprintf("scenario %s seed %d: %v", sc.Name, seed, err)) }
	var m stepMarks
	t0 := time.Now()
	sess, suite, g, cmp, err := buildTraced(sc, seed, &m)
	if err != nil {
		fail(err)
		return
	}
	built := time.Now()
	if cold {
		l.calibrate.add(built.Sub(t0))
	}
	ctl := &l.control
	if sc.MaxBIPS {
		ctl = &l.maxbips
	}
	for {
		m.sampler = 0
		ts := time.Now()
		if sess.RunIntervals(1) == 0 {
			break
		}
		chip := m.chipEnd.Sub(m.chipStart)
		l.sampler.add(m.sampler)
		l.compute.add(chip - m.sampler)
		ctl.add(m.chipStart.Sub(ts))
		l.observers.add(m.observed.Sub(m.chipEnd))
	}
	fin := time.Now()
	sum := sess.Run() // no intervals left: fires RunEnd on every observer
	end := time.Now()
	l.observers.busy += end.Sub(fin)
	l.tracedWall += end.Sub(t0)
	l.traced = append(l.traced, end.Sub(built).Seconds())
	traced := scenarioOutcome{sum: sum, trace: g.Trace(), violations: len(suite.Violations()), cmp: cmp}

	live, t, err := runLive(sc, seed)
	if err != nil {
		fail(err)
		return
	}
	l.untraced = append(l.untraced, t.run.Seconds())
	l.violations += traced.violations + live.violations
	probs := append(traced.verify(sc.Name, seed, goldens), live.verify(sc.Name, seed, goldens)...)
	if err := traced.trace.Diff(live.trace); err != nil {
		l.digestMismatches++
		probs = append(probs, "record-driven traced run differs from the live run: "+err.Error())
	}
	if seed == 1 {
		l.model.addScenario(live)
	}
	rep.op(probs...)
}
