package main

import (
	"fmt"
	"io"
	"time"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/farm"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/snapshot"
)

// sweepFarm is the default route: every point of the sweep — the unmanaged
// baseline plus a CPM and a MaxBIPS run per budget — becomes one chip of a
// farm. All points share the sweep's workload identity (budget, controller
// and initial DVFS level are compute-half state), so they collapse into one
// sampler group and the sweep pays the sampling cost of a single run
// instead of 1+2*len(budgets) runs. Grouping never changes a chip's
// trajectory, so the CSV is byte-identical at any -workers or -farm-size.
func sweepFarm(cfg sim.Config, cal core.Calibration, o sweepOptions, logw io.Writer) ([]engine.Summary, []*check.Suite, error) {
	var warmState, samplerState []byte
	var err error
	warmLeft := o.Warm
	if o.WarmStart {
		warmState, samplerState, err = warmFarmTemplate(cfg, o.Warm)
		if err != nil {
			return nil, nil, err
		}
		warmLeft = 0
		fmt.Fprintf(logw, "warm-started: %d warm epochs simulated once, forked across %d budget points\n",
			o.Warm, len(o.Fracs))
	}

	specs := make([]farm.ChipSpec, numPoints(o))
	suites := make([]*check.Suite, len(specs))
	for i := range specs {
		i := i
		specs[i] = farm.ChipSpec{
			Config: cfg,
			Init:   restoreWarmTemplate(warmState),
			NewSession: func(cmp *sim.CMP) (*engine.Session, error) {
				sess, suite, err := wirePoint(cmp, o, cal, i, warmLeft)
				suites[i] = suite
				return sess, err
			},
		}
	}

	f, err := farm.New(specs, farm.Options{MaxGroup: o.FarmSize, SamplerState: samplerState})
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(logw, "farm: %d points in %d sampler group(s)\n", f.NumChips(), f.NumGroups())

	sums, err := f.Run(engine.Pool{Workers: o.Workers}, progressPrinter(logw))
	if err != nil {
		return nil, nil, err
	}
	return sums, suites, nil
}

// progressPrinter reports fleet progress and an ETA to the log writer as
// points finish. Points-completed counts sessions, not warm templates, so
// the totals are correct under -warmstart too. Stdout never sees it — the
// CSV stays byte-identical with or without progress.
func progressPrinter(logw io.Writer) func(done, total int) {
	start := time.Now()
	return func(done, total int) {
		elapsed := time.Since(start)
		if done <= 0 || done > total {
			fmt.Fprintf(logw, "progress: %d/%d points\n", done, total)
			return
		}
		eta := elapsed / time.Duration(done) * time.Duration(total-done)
		fmt.Fprintf(logw, "progress: %d/%d points, elapsed %s, eta %s\n",
			done, total, elapsed.Round(time.Second), eta.Round(time.Second))
	}
}

// warmFarmTemplate warms the template chip every point forks from — the
// baseline and the budget points alike start at the top level (cfg's
// InitialLevel) — over its own sampler, and snapshots the chip and the
// sampler. The farm's samplers resume from the sampler state, cursors
// aligned with the template's interval counter.
func warmFarmTemplate(cfg sim.Config, warmEpochs int) (chip, samplerState []byte, err error) {
	sampler, err := sim.NewSampler(cfg)
	if err != nil {
		return nil, nil, err
	}
	cmp, err := sim.NewWithRecords(cfg, sampler)
	if err != nil {
		return nil, nil, err
	}
	cmp.SetCacheStatsSource(sampler.CacheStats)
	for k := 0; k < warmEpochs*20; k++ {
		cmp.Step()
	}
	e := snapshot.NewEncoder()
	if err := cmp.Snapshot(e); err != nil {
		return nil, nil, err
	}
	chip = e.Bytes()
	e = snapshot.NewEncoder()
	sampler.Snapshot(e)
	return chip, e.Bytes(), nil
}

// restoreWarmTemplate adapts a warm-template snapshot into a ChipSpec.Init;
// nil state (no -warmstart) means no Init. The bytes are only read, so
// every point forks from the same buffer.
func restoreWarmTemplate(state []byte) func(*sim.CMP) error {
	if state == nil {
		return nil
	}
	return func(cmp *sim.CMP) error {
		if err := cmp.Restore(snapshot.NewDecoder(state)); err != nil {
			return fmt.Errorf("cpmsweep: forking warm chip: %w", err)
		}
		return nil
	}
}
