package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/stats"
)

// Calibration and canonical-run shapes the workloads account chip-intervals
// with: core.Calibrate(cfg, 60, 240) steps two chips for 60+240 intervals
// each, and a GPM epoch is 20 PIC intervals.
const (
	calibrationIntervals = 2 * (60 + 240)
	epochIntervals       = 20
)

// opSeed derives the i-th fresh simulation seed of a run from the workload
// seed. It is never 0 (the unseeded sentinel) and never 1 (the golden
// seed, which scenario-all runs deliberately).
func opSeed(base uint64, i int) uint64 {
	s := stats.DeriveSeed(base, uint64(i), 0xbe7c)
	if s <= 1 {
		s += 2
	}
	return s
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// loadGoldens reads the pinned seed-1 golden trace of every canonical
// scenario. A missing trace is an error: the benchmark cannot verify its
// outputs without them.
func loadGoldens(root string) (map[string]check.Trace, error) {
	out := map[string]check.Trace{}
	for _, name := range check.ScenarioNames() {
		tr, err := check.LoadTrace(filepath.Join(root, "internal", "check", "testdata", "golden", name+".json"))
		if err != nil {
			return nil, fmt.Errorf("perfbench: golden trace for %s: %w", name, err)
		}
		out[name] = tr
	}
	return out, nil
}

// span accumulates one layer's spans: how often it was entered and how long
// it was busy, keeping the individual durations only where a percentile is
// reported.
type span struct {
	calls int
	busy  time.Duration
	keep  bool
	durs  []float64 // seconds, when keep
}

func (s *span) add(d time.Duration) {
	s.calls++
	s.busy += d
	if s.keep {
		s.durs = append(s.durs, d.Seconds())
	}
}

func (s *span) merge(o *span) {
	s.calls += o.calls
	s.busy += o.busy
	s.durs = append(s.durs, o.durs...)
}

// nsPerCall is the mean busy time per call.
func (s *span) nsPerCall() float64 { return ratio(float64(s.busy.Nanoseconds()), float64(s.calls)) }

// model holds simulated outcomes of a fixed, seed-determined part of a run.
// They are exact per seed and identity checks only: a change that is meant
// to alter speed alone must leave them bit-identical.
type model struct {
	bipsSum, powerSum float64
	runs              int
	l2Acc, l2Miss     uint64
	transitions       int
	worstOver         float64
}

func (m *model) addRun(meanBIPS, meanPowerW, worstOver float64) {
	m.bipsSum += meanBIPS
	m.powerSum += meanPowerW
	m.runs++
	if worstOver > m.worstOver {
		m.worstOver = worstOver
	}
}

// layers is the per-layer record of a traced run. Every workload reports
// the whole set; a layer a workload bypasses reads 0.
type layers struct {
	calibrate span // core.Calibrate, reached through a calibration miss
	sampler   span // sim.Sampler.Records
	compute   span // record-driven CMP.Step minus the sampler; calls = chip steps
	control   span // CPM.Step minus the chip step
	maxbips   span // MaxBIPSRunner.Step minus the chip step
	observers span // session observers: invariant suite, golden, recorders
	farmSetup span // farm.New
	farmRound span // one farm.RunRounds lockstep round

	requests, hits, misses, coalesced, rejected, runs, farmBatches uint64
	queueWait, serveRun, hitLat                                    []float64 // seconds

	violations, digestMismatches int
	// tracedWall is the wall time of the traced work, the base the layer
	// spans are shares of.
	tracedWall time.Duration
	// traced and untraced time the same kind of operation (seconds each)
	// with and without tracing; the ratio of their medians is the tracing
	// overhead.
	traced, untraced []float64
	model            model
}

func newLayers() *layers {
	l := &layers{}
	l.calibrate.keep = true
	l.farmRound.keep = true
	return l
}

// emit appends every per-layer metric to r.
func (l *layers) emit(r *report) {
	r.add("core.calibrate.calls", float64(l.calibrate.calls), "count")
	r.add("core.calibrate.busy_s", l.calibrate.busy.Seconds(), "s")
	r.add("core.calibrate.p50_s", percentile(l.calibrate.durs, 50), "s")
	r.add("sim.sampler.calls", float64(l.sampler.calls), "count")
	r.add("sim.sampler.busy_s", l.sampler.busy.Seconds(), "s")
	r.add("sim.sampler.ns_per_interval", l.sampler.nsPerCall(), "ns")
	r.add("sim.compute.busy_s", l.compute.busy.Seconds(), "s")
	r.add("sim.compute.ns_per_chip_step", l.compute.nsPerCall(), "ns")
	r.add("core.control.busy_s", l.control.busy.Seconds(), "s")
	r.add("core.control.ns_per_step", l.control.nsPerCall(), "ns")
	r.add("maxbips.control.busy_s", l.maxbips.busy.Seconds(), "s")
	r.add("maxbips.control.ns_per_step", l.maxbips.nsPerCall(), "ns")
	r.add("engine.observers.busy_s", l.observers.busy.Seconds(), "s")
	r.add("engine.observers.ns_per_step", l.observers.nsPerCall(), "ns")
	r.add("farm.setup_s", l.farmSetup.busy.Seconds(), "s")
	r.add("farm.round.calls", float64(l.farmRound.calls), "count")
	r.add("farm.round.busy_s", l.farmRound.busy.Seconds(), "s")
	r.add("farm.round.p50_ms", 1e3*percentile(l.farmRound.durs, 50), "ms")
	r.add("serve.requests", float64(l.requests), "count")
	r.add("serve.hits", float64(l.hits), "count")
	r.add("serve.misses", float64(l.misses), "count")
	r.add("serve.coalesced", float64(l.coalesced), "count")
	r.add("serve.rejected", float64(l.rejected), "count")
	r.add("serve.runs", float64(l.runs), "count")
	r.add("serve.farm_batches", float64(l.farmBatches), "count")
	r.add("serve.hit_ratio", ratio(float64(l.hits), float64(l.requests)), "ratio")
	r.add("serve.queue_wait.p50_ms", 1e3*percentile(l.queueWait, 50), "ms")
	r.add("serve.run.p50_ms", 1e3*percentile(l.serveRun, 50), "ms")
	r.add("serve.hit.p50_us", 1e6*percentile(l.hitLat, 50), "us")
	r.add("serve.hit.p90_us", 1e6*percentile(l.hitLat, 90), "us")
	r.add("check.violations", float64(l.violations), "count")
	r.add("check.digest_mismatches", float64(l.digestMismatches), "count")
	r.add("error_rate", ratio(float64(r.failed), float64(r.attempted)), "ratio")
	r.add("trace.wall_s", l.tracedWall.Seconds(), "s")
	r.add("trace.overhead_frac", ratio(percentile(l.traced, 50), percentile(l.untraced, 50))-1, "ratio")
	m := l.model
	r.add("model.mean_bips", ratio(m.bipsSum, float64(m.runs)), "BIPS")
	r.add("model.mean_power_w", ratio(m.powerSum, float64(m.runs)), "W")
	r.add("model.l2_miss_ratio", ratio(float64(m.l2Miss), float64(m.l2Acc)), "ratio")
	r.add("model.dvfs_transitions", float64(m.transitions), "count")
	r.add("model.worst_epoch_over_frac", m.worstOver, "ratio")
}

// endToEnd is what an untraced run measures. Every workload reports the
// whole set; the README defines each metric per workload. Times are the
// process's CPU time (cpuNow), which leaves out time spent waiting for a
// processor.
type endToEnd struct {
	setup      []float64 // CPU seconds per construction of the long-lived stack
	cold, warm float64   // CPU seconds per typical operation, by calibration path
	opsPerS    float64   // operations per CPU second
	// intervalsPerS is simulated chip-intervals per host CPU second,
	// calibration chips included.
	intervalsPerS float64
}

func (e *endToEnd) emit(r *report) {
	r.add("setup_s", percentile(e.setup, 50), "s")
	r.add("peak_rss_mb", peakRSSMB(), "MB")
	r.add("chip_intervals_per_cpu_s", e.intervalsPerS, "1/s")
	r.add("ops_per_cpu_s", e.opsPerS, "1/s")
	r.add("cold_cpu_ms", 1e3*e.cold, "ms")
	r.add("warm_cpu_ms", 1e3*e.warm, "ms")
}

// byKind holds operation times in seconds by kind of operation (the
// scenario it runs). Each kind costs differently, so one median over all
// samples would jump from one kind's time to another's as the mix of a run
// shifts; the per-kind medians do not.
type byKind map[string][]float64

func (b byKind) add(kind string, secs float64) { b[kind] = append(b[kind], secs) }

// sumMedians is the sum over kinds of each kind's median: the time of one
// typical operation of every kind.
func (b byKind) sumMedians() float64 {
	var sum float64
	for _, xs := range b {
		sum += percentile(xs, 50)
	}
	return sum
}

// meanMedian is the mean over kinds of each kind's median: the typical
// time of an operation drawn evenly from the kinds.
func (b byKind) meanMedian() float64 { return ratio(b.sumMedians(), float64(len(b))) }
