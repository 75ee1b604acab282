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
	"github.com/cpm-sim/cpm/internal/thermal"
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
	if _, err := makePolicy(*policy); err != nil { // validate the name before calibrating
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

// sweepRow is one budget point's measurements, in output order.
type sweepRow struct {
	frac, budgetW              float64
	oursPowerW, oursDegr       float64
	maxbipsPowerW, maxbipsDegr float64
}

// sweep calibrates once, runs every point — the shared unmanaged baseline
// plus a CPM and a MaxBIPS run per budget — through the farm route (or the
// resilient route under -resilient), and emits CSV in budget order.
func sweep(o sweepOptions, out, logw io.Writer) error {
	cfg := sim.DefaultConfig(o.Mix)
	cfg.Seed = o.Seed
	cfg.Parallel = o.Parallel

	cal, err := core.Calibrate(cfg, 60, 240)
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "calibrated %s: unmanaged %.1f W, plant gain %.3f\n",
		o.Mix.Name, cal.UnmanagedPowerW, cal.PlantGain)

	var rows []sweepRow
	switch {
	case o.Resilient:
		rows, err = sweepResilient(cfg, cal, o, logw)
	default:
		rows, err = sweepFarm(cfg, cal, o, logw)
	}
	if err != nil {
		return err
	}

	fmt.Fprintln(out, "budget_frac,budget_w,ours_power_w,ours_degradation,maxbips_power_w,maxbips_degradation")
	for _, r := range rows {
		fmt.Fprintf(out, "%.2f,%.2f,%.2f,%.4f,%.2f,%.4f\n",
			r.frac, r.budgetW, r.oursPowerW, r.oursDegr, r.maxbipsPowerW, r.maxbipsDegr)
	}
	return nil
}

// buildUnmanaged wires the baseline point's stack onto cmp without running
// it; warm is the warm-up still to simulate. The farm and resilient routes
// both build every point through these three functions, so they drive
// identical sessions.
func buildUnmanaged(cmp *sim.CMP, o sweepOptions, warm int) (*engine.Session, *check.Suite, error) {
	var obs []engine.Observer
	var suite *check.Suite
	if o.Check {
		suite = check.All(check.ForChip(cmp, 0))
		obs = append(obs, suite)
	}
	if o.Metrics != nil {
		obs = append(obs, metrics.NewObserver(o.Metrics, metrics.ObserverOptions{Label: "unmanaged", Chip: cmp}))
	}
	s, err := engine.NewSession(engine.NewChipRunner(cmp), engine.SessionConfig{
		WarmEpochs: warm, MeasureEpochs: o.Epochs, Label: "unmanaged",
	}, obs...)
	if err != nil {
		return nil, nil, err
	}
	return s, suite, nil
}

// buildCPM wires one managed budget point's stack onto cmp without running
// it.
func buildCPM(cmp *sim.CMP, o sweepOptions, cal core.Calibration, frac float64, warm int) (*engine.Session, *check.Suite, error) {
	budget := cal.BudgetW(frac)
	// Policies can be stateful (e.g. variation-aware), so each point builds
	// its own instance.
	pol, err := makePolicy(o.Policy)
	if err != nil {
		return nil, nil, err
	}
	c, err := core.New(cmp, core.Config{BudgetW: budget, Policy: pol, Transducers: cal.Transducers, Adaptive: adaptiveConfig(o.Adaptive, cal)})
	if err != nil {
		return nil, nil, err
	}
	var obs []engine.Observer
	var suite *check.Suite
	if o.Check {
		suite = check.ForCPM(c, budget)
		obs = append(obs, suite)
	}
	if o.Metrics != nil {
		pics := make([]*pic.Controller, cmp.NumIslands())
		for i := range pics {
			pics[i] = c.PIC(i)
		}
		obs = append(obs, metrics.NewObserver(o.Metrics, metrics.ObserverOptions{
			Label: fmt.Sprintf("cpm-%.2f", frac), Chip: cmp, PICs: pics,
		}))
	}
	s, err := engine.NewSession(engine.NewCPMRunner(c), engine.SessionConfig{
		WarmEpochs: warm, MeasureEpochs: o.Epochs, BudgetW: budget, Label: "cpm",
	}, obs...)
	if err != nil {
		return nil, nil, err
	}
	return s, suite, nil
}

// buildMaxBIPS wires one MaxBIPS budget point's stack onto cmp without
// running it.
func buildMaxBIPS(cmp *sim.CMP, o sweepOptions, budget, frac float64, warm int) (*engine.Session, *check.Suite, error) {
	planner, err := engine.NewStaticPlanner(cmp)
	if err != nil {
		return nil, nil, err
	}
	r, err := engine.NewMaxBIPSRunner(cmp, planner, budget, 20)
	if err != nil {
		return nil, nil, err
	}
	var obs []engine.Observer
	var suite *check.Suite
	if o.Check {
		// Open-loop MaxBIPS overshoots realized power by design; widen the
		// budget tolerance to the paper's reported ~20% worst case.
		ccfg := check.ForChip(cmp, budget)
		ccfg.BudgetTolFrac = 0.25
		ccfg.IslandTolFrac = 0.25
		suite = check.All(ccfg)
		obs = append(obs, suite)
	}
	if o.Metrics != nil {
		obs = append(obs, metrics.NewObserver(o.Metrics, metrics.ObserverOptions{
			Label: fmt.Sprintf("maxbips-%.2f", frac), Chip: cmp,
		}))
	}
	s, err := engine.NewSession(r, engine.SessionConfig{
		WarmEpochs: warm, MeasureEpochs: o.Epochs, BudgetW: budget, Label: "maxbips",
	}, obs...)
	if err != nil {
		return nil, nil, err
	}
	return s, suite, nil
}

// adaptiveConfig builds the per-run adaptive-gain configuration for
// -adaptive sweeps (nil when off), seeding the RLS estimator from the
// sweep's calibrated plant gain.
func adaptiveConfig(on bool, cal core.Calibration) *pic.AdaptiveConfig {
	if !on {
		return nil
	}
	return &pic.AdaptiveConfig{SeedGain: cal.PlantGain}
}

func makePolicy(name string) (gpm.Policy, error) {
	switch name {
	case "equal":
		return gpm.EqualShare{}, nil
	case "variation":
		return &gpm.VariationAware{StepFrac: 0.08, HoldIntervals: 1, MinShareFrac: 0.7}, nil
	case "thermal":
		fp, err := thermal.Grid(2, 4)
		if err != nil {
			return nil, err
		}
		return &gpm.ThermalAware{
			Base: &gpm.PerformanceAware{}, Floorplan: fp,
			AdjacentPairCap: 0.30, ConsecutiveLimit: 2,
			SoloCap: 0.20, SoloConsecutiveLimit: 4,
		}, nil
	case "performance":
		return &gpm.PerformanceAware{}, nil
	case "mpc":
		return &gpm.ModelPredictive{}, nil
	case "cache":
		return &gpm.CacheAware{}, nil
	default:
		return nil, fmt.Errorf("cpmsweep: unknown policy %q (want performance, equal, thermal, variation, mpc, cache)", name)
	}
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
