package check

import (
	"testing"

	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/variation"
	"github.com/cpm-sim/cpm/internal/workload"
)

func checkNames(s *Suite) map[string]bool {
	out := map[string]bool{}
	for _, c := range s.Checks() {
		out[c.Name()] = true
	}
	return out
}

// TestWireFaultRule: budget conservation stays on under sensor noise — the
// loop must still hold the budget — and is dropped only when an island's
// actuator is stuck, which breaks provisioning by construction.
func TestWireFaultRule(t *testing.T) {
	cases := []struct {
		name       string
		faults     *core.FaultPlan
		wantBudget bool
	}{
		{"no faults", nil, true},
		{"noise only", &core.FaultPlan{UtilNoiseStd: 0.15, StuckIsland: -1, Seed: 11}, true},
		{"stuck island", &core.FaultPlan{StuckIsland: 0, StuckLevel: 7, Seed: 13}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cmp, err := sim.New(sim.DefaultConfig(workload.Mix1()))
			if err != nil {
				t.Fatal(err)
			}
			_, suite, err := Wire(cmp, Plan{
				Kind:    CPM,
				Core:    core.Config{BudgetW: 30, UseOraclePower: true, Faults: c.faults},
				Session: engine.SessionConfig{MeasureEpochs: 1},
				Check:   true,
			})
			if err != nil {
				t.Fatal(err)
			}
			names := checkNames(suite)
			if got := names["budget-conservation"]; got != c.wantBudget {
				t.Errorf("budget-conservation in suite = %v, want %v (suite %v)", got, c.wantBudget, names)
			}
			if !names["pid-bounds"] {
				t.Errorf("CPM suite lacks pid-bounds: %v", names)
			}
		})
	}
}

// TestWireSessionAndSuite: the session's budget and period come from the
// plan's core config, the label defaults to the kind, and a plan without
// Check gets no suite.
func TestWireSessionAndSuite(t *testing.T) {
	for _, kind := range []Kind{Unmanaged, CPM, MaxBIPS} {
		cmp, err := sim.New(sim.DefaultConfig(workload.Mix1()))
		if err != nil {
			t.Fatal(err)
		}
		budget := 30.0
		if kind == Unmanaged {
			budget = 0
		}
		p := Plan{
			Kind:    kind,
			Core:    core.Config{BudgetW: budget, GPMPeriod: 10, UseOraclePower: true},
			Session: engine.SessionConfig{MeasureEpochs: 1, BudgetW: 99, Period: 99},
		}
		sess, suite, err := Wire(cmp, p)
		if err != nil {
			t.Fatal(err)
		}
		if suite != nil {
			t.Errorf("%v: suite without Check", kind)
		}
		info := sess.Info()
		if info.BudgetW != budget || info.Period != 10 || info.Label != kind.String() {
			t.Errorf("%v: session budget %g period %d label %q, want %g 10 %q",
				kind, info.BudgetW, info.Period, info.Label, budget, kind)
		}
		if (info.PICs != nil) != (kind == CPM) || info.Chip != cmp {
			t.Errorf("%v: RunInfo chip %p (want %p), %d PICs", kind, info.Chip, cmp, len(info.PICs))
		}
	}
	if _, _, err := Wire(nil, Plan{Kind: Kind(9)}); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestScenarioCalibrationPerVariationMap: two 8-core variation maps are
// two chips; each scenario must be budgeted from its own map's
// calibration, not from a cached fit of another map of the same length.
func TestScenarioCalibrationPerVariationMap(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrations in -short mode")
	}
	const seed = 3
	for _, vm := range []variation.Map{variation.PaperIslands(2), variation.Random(5, 8, 0.3)} {
		sc := Scenario{Name: "var", Mix: workload.Mix1, BudgetFrac: 0.8, Variation: vm}
		sess, _, err := sc.Build(seed)
		if err != nil {
			t.Fatal(err)
		}
		cal, err := core.Calibrate(sc.BuildConfig(seed), 60, 240)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sess.Info().BudgetW, cal.BudgetW(0.8); got != want {
			t.Errorf("map %v: scenario budget %g W, its own calibration gives %g W", vm, got, want)
		}
	}
}
