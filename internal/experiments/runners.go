package experiments

import (
	"fmt"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/metrics"
	"github.com/cpm-sim/cpm/internal/sim"
)

// runSummary is the engine's run summary; the experiments previously
// aggregated this by hand in three bespoke loops.
type runSummary = engine.Summary

// plan is the stack most experiment runs use: kind at budgetW with the
// calibrated transducers, warm and meas GPM epochs long. Callers adjust
// the rest (policy, faults, period) on the returned copy.
func plan(kind check.Kind, cal core.Calibration, budgetW float64, warm, meas int) check.Plan {
	return check.Plan{
		Kind:    kind,
		Core:    core.Config{BudgetW: budgetW, Transducers: cal.Transducers},
		Session: engine.SessionConfig{WarmEpochs: warm, MeasureEpochs: meas},
	}
}

// runPlan builds a fresh chip from cfg, wires p's stack onto it and runs it to
// completion. The harness Options decide the rest: Check attaches the
// invariant suite and fails the run on any violation, Metrics a telemetry
// observer labelled by kind and budget. extra observers watch the run too.
func runPlan(cfg sim.Config, p check.Plan, o Options, extra ...engine.Observer) (runSummary, error) {
	cmp, err := sim.New(cfg)
	if err != nil {
		return runSummary{}, err
	}
	name := p.Kind.String()
	if b := p.Core.BudgetW; b > 0 {
		name = fmt.Sprintf("%s-%.2fW", name, b)
	}
	if o.Metrics != nil {
		extra = append(extra, metrics.NewObserver(o.Metrics, metrics.ObserverOptions{Label: name}))
	}
	p.Check = o.Check
	s, suite, err := check.Wire(cmp, p, extra...)
	if err != nil {
		return runSummary{}, err
	}
	sum := s.Run()
	if suite != nil {
		if err := suite.Err(); err != nil {
			return sum, fmt.Errorf("%s run: %w", name, err)
		}
	}
	return sum, nil
}

// degradation returns the throughput loss of run vs baseline as a fraction.
func degradation(run, baseline runSummary) float64 {
	return engine.Degradation(run, baseline)
}
