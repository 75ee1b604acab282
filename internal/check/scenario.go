package check

import (
	"fmt"
	"reflect"
	"strings"

	"github.com/cpm-sim/cpm/internal/control"
	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/gpm"
	"github.com/cpm-sim/cpm/internal/pic"
	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/snapshot"
	"github.com/cpm-sim/cpm/internal/variation"
	"github.com/cpm-sim/cpm/internal/workload"
)

// Scenario is one canonical end-to-end configuration pinned by the golden
// harness. The set in Canonical covers every control path the paper
// evaluates: the default two-tier CPM loop, the MaxBIPS baseline, the
// thermal- and variation-aware provisioning policies, fault injection, a
// second point on the budget axis, and the adaptive/predictive extensions
// (adaptive-gain PIC, MPC-style GPM, cache-aware provisioning).
type Scenario struct {
	// Name keys the golden file (testdata/golden/<Name>.json).
	Name string
	// Mix builds the workload.
	Mix func() workload.Mix
	// Variation, when non-empty, applies intra-die process variation.
	Variation variation.Map
	// Policy names the GPM provisioning policy (gpm.ByName, built fresh
	// per run — policies carry history). Empty means gpm.PerformanceAware.
	Policy string
	// BudgetFrac is the §IV budget fraction of calibrated unmanaged power.
	BudgetFrac float64
	// MaxBIPS selects the open-loop MaxBIPS baseline instead of CPM. Its
	// budget tolerances are widened (see Wire): the planner holds
	// *predicted* power under budget, and the paper's point is precisely
	// that its realized power overshoots.
	MaxBIPS bool
	// Faults, when non-nil, injects the §"extension" fault plan.
	Faults *core.FaultPlan
	// GainScale multiplies the paper PID gains (0 or 1 = paper gains).
	// It exists for the harness's self-test: a perturbed controller must
	// change the golden digests.
	GainScale float64
	// Adaptive runs every PIC with the adaptive-gain estimator, seeded
	// from the scenario's own calibrated plant gain (core.Config.Adaptive).
	Adaptive bool
	// Tech, when enabled, rescales the chip to the given technology node
	// (sim.Config.Tech).
	Tech power.TechConfig
	// Classes, when non-nil, assigns per-island core classes — the
	// big.LITTLE axis (sim.Config.IslandClasses).
	Classes []power.CoreClass
	// WarmEpochs/MeasureEpochs shape the run; zero means the canonical
	// 2 warm + 4 measured epochs.
	WarmEpochs    int
	MeasureEpochs int
}

func (s Scenario) warm() int {
	if s.WarmEpochs > 0 {
		return s.WarmEpochs
	}
	return 2
}

func (s Scenario) meas() int {
	if s.MeasureEpochs > 0 {
		return s.MeasureEpochs
	}
	return 4
}

// scenarioViaConfig classifies every Scenario field for Key: true for the
// fields that reach the chip configuration, which Key covers through
// BuildConfig(seed).Key(), false for the control fields Key encodes itself.
// A field missing here is encoded like a control field, and the identity
// completeness test fails until it is classified.
var scenarioViaConfig = map[string]bool{
	"Mix": true, "Variation": true, "Tech": true, "Classes": true,

	"Name": false, "Policy": false, "BudgetFrac": false, "MaxBIPS": false,
	"Faults": false, "GainScale": false, "Adaptive": false,
	"WarmEpochs": false, "MeasureEpochs": false,
}

// Key is the run identity of the scenario at seed: the chip identity
// BuildConfig(seed).Key() plus the canonical encoding of every control
// field, with the run windows resolved (0 and the default are one run).
// Equal keys mean bit-identical runs; it keys cpmserve's result cache and
// binds cpmsim checkpoints to the run they were taken from.
func (s Scenario) Key(seed uint64) string {
	e := snapshot.NewEncoder()
	e.String(s.BuildConfig(seed).Key())
	s.WarmEpochs, s.MeasureEpochs = s.Defaults()
	v := reflect.ValueOf(s)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		if scenarioViaConfig[t.Field(i).Name] {
			continue
		}
		e.String(t.Field(i).Name)
		e.Canonical(v.Field(i))
	}
	return e.Key()
}

// Canonical returns the eleven pinned scenarios. Names are stable — they
// key the golden files.
func Canonical() []Scenario {
	return []Scenario{
		{Name: "cpm-default", Mix: workload.Mix1, BudgetFrac: 0.8},
		{Name: "maxbips", Mix: workload.Mix1, BudgetFrac: 0.8, MaxBIPS: true},
		{Name: "thermal-policy", Mix: workload.ThermalMix, BudgetFrac: 0.5, Policy: "thermal"},
		{
			Name: "variation-aware", Mix: workload.Mix1, BudgetFrac: 0.8,
			Variation: variation.PaperIslands(2), Policy: "variation",
		},
		{
			Name: "fault-noise", Mix: workload.Mix1, BudgetFrac: 0.8,
			Faults: &core.FaultPlan{UtilNoiseStd: 0.15, StuckIsland: -1, Seed: 11},
		},
		{Name: "budget-60", Mix: workload.Mix1, BudgetFrac: 0.6},
		{Name: "adaptive-pic", Mix: workload.Mix1, BudgetFrac: 0.8, Adaptive: true},
		{Name: "mpc-gpm", Mix: workload.Mix1, BudgetFrac: 0.8, Policy: "mpc"},
		{Name: "cache-aware", Mix: workload.Mix1, BudgetFrac: 0.7, Policy: "cache"},
		{
			Name: "hetero-biglittle", Mix: workload.Mix1, BudgetFrac: 0.8,
			Classes: []power.CoreClass{
				power.ClassOoO, power.ClassLittleIO, power.ClassOoO, power.ClassLittleIO,
			},
		},
		{
			Name: "tech-16nm", Mix: workload.Mix1, BudgetFrac: 0.8,
			Tech: power.TechConfig{Node: power.Node16, Variant: power.ITRS},
		},
	}
}

// ScenarioNames lists the canonical scenario names, in Canonical order.
func ScenarioNames() []string {
	cs := Canonical()
	names := make([]string, len(cs))
	for i, sc := range cs {
		names[i] = sc.Name
	}
	return names
}

// ScenarioByName resolves a canonical scenario; the error lists the valid
// names. Callers that want to vary the run (budget, windows) mutate the
// returned copy before Build.
func ScenarioByName(name string) (Scenario, error) {
	for _, sc := range Canonical() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("check: unknown scenario %q (have %s)", name, strings.Join(ScenarioNames(), ", "))
}

// Defaults returns the effective warmup and measurement windows in GPM
// epochs — the zero-value defaults resolved, so external layers (the serve
// request normalizer) can content-address a run without duplicating them.
func (s Scenario) Defaults() (warmEpochs, measureEpochs int) {
	return s.warm(), s.meas()
}

// Run executes the scenario under the full standard invariant suite plus
// any extra observers (e.g. a Golden recorder), returning the summary and
// the suite for violation inspection.
func (s Scenario) Run(seed uint64, extra ...engine.Observer) (engine.Summary, *Suite, error) {
	sess, suite, err := s.Build(seed, extra...)
	if err != nil {
		return engine.Summary{}, nil, err
	}
	return sess.Run(), suite, nil
}

// Build constructs the scenario's full stack — chip, controller or
// baseline, invariant suite, session — without running it. Construction is
// deterministic in (scenario, seed): two Builds produce process-equivalent
// stacks, which is what lets a snapshot taken mid-run in one stack be
// restored into a fresh one (checkpoint/resume, warm-started sweeps) and
// continue bit-identically.
func (s Scenario) Build(seed uint64, extra ...engine.Observer) (*engine.Session, *Suite, error) {
	cfg := s.BuildConfig(seed)
	cmp, err := sim.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return s.assemble(cmp, cfg, extra...)
}

// BuildConfig returns the chip configuration Build simulates for seed —
// the input a farm needs to construct an equivalent record-driven chip.
func (s Scenario) BuildConfig(seed uint64) sim.Config {
	cfg := sim.DefaultConfig(s.Mix())
	cfg.Seed = seed
	cfg.Parallel = false // sequential: golden digests must not depend on GOMAXPROCS
	cfg.Variation = s.Variation
	cfg.Tech = s.Tech
	cfg.IslandClasses = s.Classes
	return cfg
}

// BuildOn assembles the scenario's stack over a caller-supplied chip built
// from BuildConfig(seed) — normally a farm member (sim.NewWithRecords), so
// the pinned golden scenarios can be replayed through the batched path.
func (s Scenario) BuildOn(cmp *sim.CMP, seed uint64, extra ...engine.Observer) (*engine.Session, *Suite, error) {
	return s.assemble(cmp, s.BuildConfig(seed), extra...)
}

// assemble calibrates (process-cached) and wires controller or baseline,
// invariant suite and session around the chip.
func (s Scenario) assemble(cmp *sim.CMP, cfg sim.Config, extra ...engine.Observer) (*engine.Session, *Suite, error) {
	cal, err := core.CalibrateCached(cfg)
	if err != nil {
		return nil, nil, err
	}
	p := Plan{
		Kind:    CPM,
		Core:    core.Config{BudgetW: cal.BudgetW(s.BudgetFrac)},
		Session: engine.SessionConfig{WarmEpochs: s.warm(), MeasureEpochs: s.meas(), Label: s.Name},
		Check:   true,
	}
	if s.MaxBIPS {
		p.Kind = MaxBIPS
		return Wire(cmp, p, extra...)
	}
	if s.Policy != "" {
		if p.Core.Policy, err = gpm.ByName(s.Policy); err != nil {
			return nil, nil, err
		}
	}
	p.Core.Gains = control.PaperGains
	if s.GainScale != 0 && s.GainScale != 1 {
		p.Core.Gains = control.Gains{
			KP: control.PaperGains.KP * s.GainScale,
			KI: control.PaperGains.KI * s.GainScale,
			KD: control.PaperGains.KD * s.GainScale,
		}
	}
	if s.Adaptive {
		// Seed the estimator from the same sysid fit the scenario already
		// paid for; every AdaptiveConfig default is otherwise canonical.
		p.Core.Adaptive = &pic.AdaptiveConfig{SeedGain: cal.PlantGain}
	}
	p.Core.Transducers, p.Core.Faults = cal.Transducers, s.Faults
	return Wire(cmp, p, extra...)
}
