package check

import (
	"reflect"
	"testing"

	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/variation"
	"github.com/cpm-sim/cpm/internal/workload"
)

// scenarioPerturbations changes exactly one field of the cpm-default
// scenario.
var scenarioPerturbations = map[string]func(*Scenario){
	"Name":      func(s *Scenario) { s.Name = "renamed" },
	"Mix":       func(s *Scenario) { s.Mix = workload.Mix2 },
	"Variation": func(s *Scenario) { s.Variation = variation.PaperIslands(2) },
	"Policy":    func(s *Scenario) { s.Policy = "thermal" },
	// An increment past %.9g: the key carries exact bits.
	"BudgetFrac":    func(s *Scenario) { s.BudgetFrac += 1e-10 },
	"MaxBIPS":       func(s *Scenario) { s.MaxBIPS = true },
	"Faults":        func(s *Scenario) { s.Faults = &core.FaultPlan{StuckIsland: -1} },
	"GainScale":     func(s *Scenario) { s.GainScale = 1.5 },
	"Adaptive":      func(s *Scenario) { s.Adaptive = true },
	"Tech":          func(s *Scenario) { s.Tech = power.TechConfig{Node: power.Node16, Variant: power.ITRS} },
	"Classes":       func(s *Scenario) { s.Classes = []power.CoreClass{power.ClassLittleIO, 0, 0, 0} },
	"WarmEpochs":    func(s *Scenario) { s.WarmEpochs = 3 },
	"MeasureEpochs": func(s *Scenario) { s.MeasureEpochs = 5 },
}

// TestIdentityScenarioCompleteness: every Scenario field is classified,
// every perturbation moves Key, and exactly the fields classified as
// reaching the chip configuration move BuildConfig's key.
func TestIdentityScenarioCompleteness(t *testing.T) {
	base, err := ScenarioByName("cpm-default")
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]bool{}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(base)) {
		fields[f.Name] = true
		viaConfig, ok := scenarioViaConfig[f.Name]
		if !ok {
			t.Errorf("Scenario.%s is not classified in scenarioViaConfig", f.Name)
			continue
		}
		perturb, ok := scenarioPerturbations[f.Name]
		if !ok {
			t.Errorf("Scenario.%s has no identity perturbation", f.Name)
			continue
		}
		sc := base
		perturb(&sc)
		if sc.Key(goldenSeed) == base.Key(goldenSeed) {
			t.Errorf("Scenario.%s does not reach Key", f.Name)
		}
		moved := sc.BuildConfig(goldenSeed).Key() != base.BuildConfig(goldenSeed).Key()
		if moved != viaConfig {
			t.Errorf("Scenario.%s (via config %v): chip Key moved=%v", f.Name, viaConfig, moved)
		}
	}
	for name := range scenarioViaConfig {
		if !fields[name] {
			t.Errorf("scenarioViaConfig classifies %s, which is not a Scenario field", name)
		}
	}

	if base.Key(1) == base.Key(2) {
		t.Error("seed does not reach Key")
	}
	explicit := base
	explicit.WarmEpochs, explicit.MeasureEpochs = base.Defaults()
	if explicit.Key(goldenSeed) != base.Key(goldenSeed) {
		t.Error("spelled-out default windows change Key")
	}
}

// TestIdentityCanonicalPartitions pins how the canonical scenarios share
// work, per seed: five calibration identities (the seven Mix-1 scenarios
// without variation, tech or classes share one; thermal-policy,
// variation-aware, hetero-biglittle and tech-16nm calibrate alone), four
// workload identities (variation is compute-half, so variation-aware
// samples with the Mix-1 seven), and eleven distinct runs.
func TestIdentityCanonicalPartitions(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		cal, work, runs := map[string]bool{}, map[string]bool{}, map[string]bool{}
		for _, sc := range Canonical() {
			cfg := sc.BuildConfig(seed)
			cal[cfg.Key()], work[cfg.WorkloadKey()], runs[sc.Key(seed)] = true, true, true
		}
		if len(cal) != 5 || len(work) != 4 || len(runs) != len(Canonical()) {
			t.Errorf("seed %d: %d calibration, %d workload, %d run identities; want 5, 4, %d",
				seed, len(cal), len(work), len(runs), len(Canonical()))
		}
	}
}
