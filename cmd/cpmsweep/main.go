// Command cpmsweep runs managed-vs-baseline parameter sweeps and emits CSV,
// the workhorse behind custom variants of Figures 11–17.
//
// By default the sweep routes every point — the unmanaged baseline plus a
// CPM and a MaxBIPS run per budget — through one internal/farm fleet: the
// points share a workload identity, so they share one trace sampler and
// each pays only its cheap frequency-dependent half. -resilient routes the
// same points through the crash-safe sweepd coordinator instead. Both
// routes, any -workers and any -farm-size produce byte-identical CSV
// (results are emitted in budget order). Progress and ETA go to stderr;
// stdout carries only the CSV.
//
// Usage:
//
//	cpmsweep -mix mix1 -budgets 0.5,0.6,0.7,0.8,0.9 -epochs 16
//	cpmsweep -mix mix3 -policy variation -budgets 0.8 -workers 4
//
// Columns: budget_frac, budget_w, ours_power_w, ours_degradation,
// maxbips_power_w, maxbips_degradation.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/diag"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/gpm"
	"github.com/cpm-sim/cpm/internal/metrics"
	"github.com/cpm-sim/cpm/internal/pic"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/workload"
)

// parseSweepCLI parses and validates argv (without the program name),
// returning the sweep options. Every reject path is an error, not an exit,
// so the validation is testable.
func parseSweepCLI(argv []string, stderr io.Writer) (sweepOptions, error) {
	fs := flag.NewFlagSet("cpmsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mixName := fs.String("mix", "mix1", "application mix: mix1, mix2, mix3, mix3x2, thermal")
	policy := fs.String("policy", "performance", "GPM policy: performance, equal, thermal, variation, mpc, cache")
	adaptive := fs.Bool("adaptive", false, "run the PICs with the adaptive-gain estimator (RLS plant-gain tracking, seeded from calibration)")
	budgets := fs.String("budgets", "0.5,0.6,0.7,0.8,0.9,0.95", "comma-separated budget fractions of required power")
	seed := fs.Uint64("seed", 1, "simulation seed (non-zero)")
	warm := fs.Int("warm", 6, "warm-up GPM epochs")
	epochs := fs.Int("epochs", 16, "measured GPM epochs")
	workers := fs.Int("workers", 0, "concurrent budget points (0 = GOMAXPROCS)")
	checked := fs.Bool("check", false, "attach the invariant-checking suite to every run")
	warmstart := fs.Bool("warmstart", false, "warm the chip once unmanaged, snapshot it, and fork every budget point from the snapshot (skips per-point warm-up; trajectories differ slightly from the default per-point managed warm-up)")
	farmSize := fs.Int("farm-size", 0, "max chips per farm sampler group; 0 = unlimited (one shared group per workload)")
	resilient := fs.Bool("resilient", false, "route points through the crash-safe sweepd coordinator: workers checkpoint at interval boundaries and killed or panicked workers migrate their point to a survivor (identical CSV)")
	killEvery := fs.Int("kill-every", 0, "inject a deterministic worker kill each time a point first completes an interval divisible by N (requires -resilient; 0 = off)")
	ckptEvery := fs.Int("ckpt-every", 0, "checkpoint cadence in intervals for -resilient workers (0 = every 20)")
	dflags := diag.AddFlags(fs)
	if err := fs.Parse(argv); err != nil {
		return sweepOptions{}, err
	}
	if *seed == 0 {
		return sweepOptions{}, fmt.Errorf("cpmsweep: -seed must be non-zero (0 is the unseeded sentinel)")
	}
	if *warm < 0 {
		return sweepOptions{}, fmt.Errorf("cpmsweep: -warm must be >= 0, got %d", *warm)
	}
	if *epochs <= 0 {
		return sweepOptions{}, fmt.Errorf("cpmsweep: -epochs must be > 0, got %d", *epochs)
	}
	if *workers < 0 {
		return sweepOptions{}, fmt.Errorf("cpmsweep: -workers must be >= 0, got %d", *workers)
	}
	if *farmSize < 0 {
		return sweepOptions{}, fmt.Errorf("cpmsweep: -farm-size must be >= 0, got %d", *farmSize)
	}
	if *killEvery < 0 {
		return sweepOptions{}, fmt.Errorf("cpmsweep: -kill-every must be >= 0, got %d", *killEvery)
	}
	if *ckptEvery < 0 {
		return sweepOptions{}, fmt.Errorf("cpmsweep: -ckpt-every must be >= 0, got %d", *ckptEvery)
	}
	if !*resilient && (*killEvery > 0 || *ckptEvery > 0) {
		return sweepOptions{}, fmt.Errorf("cpmsweep: -kill-every and -ckpt-every require -resilient")
	}
	mix, err := workload.MixByName(*mixName)
	if err != nil {
		return sweepOptions{}, err
	}
	fracs, err := parseBudgets(*budgets)
	if err != nil {
		return sweepOptions{}, err
	}
	if _, err := gpm.ByName(*policy); err != nil { // validate the name before calibrating
		return sweepOptions{}, err
	}
	return sweepOptions{
		Mix:       mix,
		Policy:    *policy,
		Adaptive:  *adaptive,
		Fracs:     fracs,
		Seed:      *seed,
		Warm:      *warm,
		Epochs:    *epochs,
		Workers:   *workers,
		Parallel:  true,
		Check:     *checked,
		WarmStart: *warmstart,
		FarmSize:  *farmSize,
		Resilient: *resilient,
		KillEvery: *killEvery,
		CkptEvery: *ckptEvery,
		Diag:      dflags,
	}, nil
}

func main() {
	o, err := parseSweepCLI(os.Args[1:], os.Stderr)
	exitOn(err)
	stopTrace, err := o.Diag.Start(os.Stderr)
	exitOn(err)
	o.Metrics = o.Diag.Registry()
	if err := sweep(o, os.Stdout, os.Stderr); err != nil {
		stopTrace()
		exitOn(err)
	}
	stopTrace()
	exitOn(o.Diag.WriteMetrics(o.Metrics, os.Stdout))
}

// sweepOptions parameterizes one sweep.
type sweepOptions struct {
	Mix    workload.Mix
	Policy string
	// Adaptive runs every CPM point's PICs with the adaptive-gain
	// estimator, seeded from the sweep's calibrated plant gain.
	Adaptive bool
	Fracs    []float64
	Seed     uint64
	Warm     int
	Epochs   int
	// Workers is the engine.Pool size (0 = GOMAXPROCS).
	Workers int
	// Parallel selects the simulator's island-parallel executor inside each
	// run. Pool-level and island-level parallelism compose; benchmarks
	// disable the inner level to isolate the pool's speedup.
	Parallel bool
	// Check attaches the invariant suite to every run; a violation fails
	// the sweep.
	Check bool
	// WarmStart warms one unmanaged chip per chip configuration, snapshots
	// it, and forks every budget point from the snapshot with a zero
	// warm-up window — the warm-up cost is paid once instead of once per
	// (budget, controller) pair. Off by default: the forked warm-up is
	// unmanaged, so the measured trajectories (and CSV) differ slightly
	// from the default per-point managed warm-up.
	WarmStart bool
	// FarmSize caps the chips per farm sampler group (0 = unlimited).
	// Grouping changes scheduling only, never the CSV.
	FarmSize int
	// Resilient routes every point through the sweepd coordinator:
	// independent sessions checkpointed at interval boundaries, with dead
	// workers' points migrated to survivors. CSV is byte-identical to the
	// other routes.
	Resilient bool
	// KillEvery injects a deterministic worker kill each time a point
	// first completes an interval divisible by KillEvery (0 = off;
	// requires Resilient). Used to prove crash-equivalence.
	KillEvery int
	// CkptEvery is the resilient route's checkpoint cadence in intervals
	// (0 = every 20).
	CkptEvery int
	// Diag holds the shared diagnostics flags (-metrics, -pprof, -trace).
	Diag *diag.Flags
	// Metrics, when non-nil, attaches a telemetry observer to every run.
	// The registry is race-safe: budget points record into it concurrently
	// from the pool, and it may be scraped while the sweep runs.
	Metrics *metrics.Registry
}

// sweep calibrates once, runs every point — the shared unmanaged baseline
// plus a CPM and a MaxBIPS run per budget — through the farm route (or the
// resilient route under -resilient), and emits CSV in budget order. Both
// routes return summaries and suites in the point layout of pointPlan.
func sweep(o sweepOptions, out, logw io.Writer) error {
	cfg := sim.DefaultConfig(o.Mix)
	cfg.Seed = o.Seed
	cfg.Parallel = o.Parallel

	cal, err := core.CalibrateCached(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "calibrated %s: unmanaged %.1f W, plant gain %.3f\n",
		o.Mix.Name, cal.UnmanagedPowerW, cal.PlantGain)

	var sums []engine.Summary
	var suites []*check.Suite
	if o.Resilient {
		sums, suites, err = sweepResilient(cfg, cal, o, logw)
	} else {
		sums, suites, err = sweepFarm(cfg, cal, o, logw)
	}
	if err != nil {
		return err
	}
	for i, s := range suites {
		if s == nil {
			continue
		}
		if err := s.Err(); err != nil {
			if i == 0 {
				return err
			}
			ctx := "budget"
			if pointKind(i) == check.MaxBIPS {
				ctx = "maxbips budget"
			}
			return fmt.Errorf("%s %.2f W: %w", ctx, cal.BudgetW(o.Fracs[(i-1)/2]), err)
		}
	}

	base := sums[0]
	fmt.Fprintln(out, "budget_frac,budget_w,ours_power_w,ours_degradation,maxbips_power_w,maxbips_degradation")
	for pi, frac := range o.Fracs {
		ours, mb := sums[1+2*pi], sums[2+2*pi]
		fmt.Fprintf(out, "%.2f,%.2f,%.2f,%.4f,%.2f,%.4f\n",
			frac, cal.BudgetW(frac), ours.MeanPowerW, engine.Degradation(ours, base),
			mb.MeanPowerW, engine.Degradation(mb, base))
	}
	return nil
}

// numPoints is the size of the sweep's point layout, shared by both
// routes: 0 is the unmanaged baseline, then a CPM (odd) and a MaxBIPS
// (even) point per budget fraction, in budget order.
func numPoints(o sweepOptions) int { return 1 + 2*len(o.Fracs) }

// pointKind is the stack of point i.
func pointKind(i int) check.Kind {
	switch {
	case i == 0:
		return check.Unmanaged
	case i%2 == 1:
		return check.CPM
	}
	return check.MaxBIPS
}

// pointPlan builds point i's stack plan, warm the warm-up epochs still to
// simulate. Policies carry history, so every call builds a fresh one.
func pointPlan(o sweepOptions, cal core.Calibration, i, warm int) (check.Plan, error) {
	p := check.Plan{
		Kind:    pointKind(i),
		Session: engine.SessionConfig{WarmEpochs: warm, MeasureEpochs: o.Epochs},
		Check:   o.Check,
	}
	if p.Kind == check.Unmanaged {
		return p, nil
	}
	p.Core.BudgetW = cal.BudgetW(o.Fracs[(i-1)/2])
	if p.Kind == check.MaxBIPS {
		return p, nil
	}
	pol, err := gpm.ByName(o.Policy)
	if err != nil {
		return p, err
	}
	p.Core.Policy, p.Core.Transducers = pol, cal.Transducers
	if o.Adaptive {
		p.Core.Adaptive = &pic.AdaptiveConfig{SeedGain: cal.PlantGain}
	}
	return p, nil
}

// wirePoint wires point i's stack onto cmp without running it, with a
// telemetry observer when the sweep has a registry.
func wirePoint(cmp *sim.CMP, o sweepOptions, cal core.Calibration, i, warm int) (*engine.Session, *check.Suite, error) {
	p, err := pointPlan(o, cal, i, warm)
	if err != nil {
		return nil, nil, err
	}
	var extra []engine.Observer
	if o.Metrics != nil {
		label := p.Kind.String()
		if i > 0 {
			label = fmt.Sprintf("%s-%.2f", label, o.Fracs[(i-1)/2])
		}
		extra = append(extra, metrics.NewObserver(o.Metrics, metrics.ObserverOptions{Label: label}))
	}
	return check.Wire(cmp, p, extra...)
}

func parseBudgets(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("cpmsweep: bad budget %q", part)
		}
		if v <= 0 || v > 1 {
			return nil, fmt.Errorf("cpmsweep: budget %v out of (0, 1]", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cpmsweep: no budgets")
	}
	return out, nil
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
