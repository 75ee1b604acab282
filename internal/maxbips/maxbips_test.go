package maxbips

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/stats"
)

// pentiumTables gives n islands the Table I Pentium M table.
func pentiumTables(n int) []*power.DVFSTable {
	out := make([]*power.DVFSTable, n)
	for i := range out {
		out[i] = power.PentiumM()
	}
	return out
}

func newPlanner(t *testing.T, islands int) *Planner {
	t.Helper()
	p, err := NewPerIsland(pentiumTables(islands))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// predictedTotals evaluates a chosen combination under the planner's own
// prediction model.
func predictedTotals(p *Planner, obs []IslandObs, levels []int) (pw, bips float64) {
	pwTab, bipsTab := p.predict(obs)
	for i, lvl := range levels {
		pw += pwTab[i][lvl]
		bips += bipsTab[i][lvl]
	}
	return
}

func TestNewValidation(t *testing.T) {
	if _, err := NewPerIsland(nil); err == nil {
		t.Error("no tables should be rejected")
	}
	if _, err := NewPerIsland([]*power.DVFSTable{power.PentiumM(), nil}); err == nil {
		t.Error("nil table should be rejected")
	}
}

func TestPredictionScaling(t *testing.T) {
	p := newPlanner(t, 1)
	obs := []IslandObs{{Level: 7, PowerW: 20, BIPS: 4}}
	pw, bips := p.predict(obs)
	// At the observed level the prediction equals the observation.
	if math.Abs(pw[0][7]-20) > 1e-9 || math.Abs(bips[0][7]-4) > 1e-9 {
		t.Errorf("self-prediction = (%v, %v)", pw[0][7], bips[0][7])
	}
	// BIPS scales with frequency: level 0 is 600/2000 of level 7.
	if math.Abs(bips[0][0]-4*600.0/2000.0) > 1e-9 {
		t.Errorf("BIPS prediction at level 0 = %v", bips[0][0])
	}
	// Power scales with V²f.
	lo, hi := power.PentiumM().Point(0), power.PentiumM().Point(7)
	want := 20 * (lo.VoltageV * lo.VoltageV * lo.FreqMHz) / (hi.VoltageV * hi.VoltageV * hi.FreqMHz)
	if math.Abs(pw[0][0]-want) > 1e-9 {
		t.Errorf("power prediction at level 0 = %v, want %v", pw[0][0], want)
	}
}

func TestChooseRespectsBudget(t *testing.T) {
	p := newPlanner(t, 4)
	obs := []IslandObs{
		{Level: 7, PowerW: 20, BIPS: 4},
		{Level: 7, PowerW: 22, BIPS: 2},
		{Level: 7, PowerW: 18, BIPS: 3},
		{Level: 7, PowerW: 21, BIPS: 5},
	}
	for _, budget := range []float64{30, 50, 65, 81} {
		levels := p.Choose(budget, obs)
		pw, _ := predictedTotals(p, obs, levels)
		if pw > budget+1e-9 {
			t.Errorf("budget %v: predicted power %v exceeds it", budget, pw)
		}
	}
}

func TestChooseMaximizesAtGenerousBudget(t *testing.T) {
	p := newPlanner(t, 2)
	obs := []IslandObs{
		{Level: 7, PowerW: 20, BIPS: 4},
		{Level: 7, PowerW: 20, BIPS: 2},
	}
	levels := p.Choose(1000, obs)
	for i, lvl := range levels {
		if lvl != 7 {
			t.Errorf("island %d at level %d despite unconstrained budget", i, lvl)
		}
	}
}

func TestChooseInfeasibleBudget(t *testing.T) {
	p := newPlanner(t, 1)
	obs := []IslandObs{{Level: 7, PowerW: 20, BIPS: 4}}
	levels := p.Choose(0.01, obs)
	if levels[0] != 0 {
		t.Errorf("infeasible budget should pick the lowest level, got %d", levels[0])
	}
	if p.Choose(10, nil) != nil {
		t.Error("empty observation should give nil")
	}
}

// The under-consumption behaviour of Figure 11: with discrete knobs the
// chosen combination's predicted power sits strictly below a budget that
// falls between achievable combinations.
func TestUnderConsumesBetweenKnobs(t *testing.T) {
	p := newPlanner(t, 2)
	obs := []IslandObs{
		{Level: 7, PowerW: 20, BIPS: 4},
		{Level: 7, PowerW: 20, BIPS: 4},
	}
	budget := 31.0 // between combination powers
	levels := p.Choose(budget, obs)
	pw, _ := predictedTotals(p, obs, levels)
	if pw >= budget {
		t.Errorf("predicted power %v not below budget %v", pw, budget)
	}
	if budget-pw < 0.1 {
		t.Errorf("expected a visible under-consumption gap, got %v", budget-pw)
	}
}

// The DP must match the exhaustive search's achieved BIPS (up to the power
// quantization) on identical inputs.
func TestDPMatchesExhaustiveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		p, err := NewPerIsland(pentiumTables(4))
		if err != nil {
			return false
		}
		p.PowerQuantum = 0.05
		obs := make([]IslandObs, 4)
		for i := range obs {
			obs[i] = IslandObs{
				Level:  r.Intn(8),
				PowerW: r.Range(5, 25),
				BIPS:   r.Range(0.5, 6),
			}
		}
		budget := r.Range(20, 90)

		pwTab, bipsTab := p.predict(obs)

		// Infeasible draws (even all-lowest busts the budget) exercise the
		// documented fallback: both searches must return all-lowest.
		minP := 0.0
		for i := range obs {
			minP += pwTab[i][0]
		}
		ex := p.exhaustive(budget, pwTab, bipsTab)
		dp := p.quantizedDP(budget, pwTab, bipsTab)
		if minP > budget {
			for i := range ex {
				if ex[i] != 0 || dp[i] != 0 {
					return false
				}
			}
			return true
		}

		exP, exB := predictedTotals(p, obs, ex)
		dpP, dpB := predictedTotals(p, obs, dp)
		if exP > budget+1e-9 {
			return false
		}
		// Quantization rounds power *up*, so the DP is conservative: it
		// must stay within budget and within a few percent of the
		// exhaustive optimum. 8% covers the observed worst case (seed
		// 0x4549befdae27735e reaches 92.75% of the exhaustive BIPS when
		// rounding pushes the budget boundary across a level step).
		if dpP > budget+1e-9 {
			return false
		}
		return dpB >= exB*0.92-1e-9
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestLargeConfigurationUsesDPAndIsFast(t *testing.T) {
	p := newPlanner(t, 16)
	obs := make([]IslandObs, 16) // 8^16 exhaustive would be impossible
	for i := range obs {
		obs[i] = IslandObs{Level: 7, PowerW: 20, BIPS: 3}
	}
	levels := p.Choose(200, obs)
	if len(levels) != 16 {
		t.Fatalf("levels = %v", levels)
	}
	pw, _ := predictedTotals(p, obs, levels)
	if pw > 200+1e-9 {
		t.Errorf("DP busted the budget: %v", pw)
	}
	_, bips := predictedTotals(p, obs, levels)
	// Sanity: with 200 W for 16 islands (12.5 W each) the DP should get
	// well above the all-lowest throughput.
	if bips < 16*3*0.4 {
		t.Errorf("DP throughput %v implausibly low", bips)
	}
}

func staticTable4(levels int) [][]float64 {
	// Four identical islands whose per-level prediction ramps 6..20 W.
	out := make([][]float64, 4)
	for i := range out {
		out[i] = make([]float64, levels)
		for l := 0; l < levels; l++ {
			out[i][l] = 6 + 2*float64(l)
		}
	}
	return out
}

func TestSetStaticTableValidation(t *testing.T) {
	p := newPlanner(t, 4)
	if err := p.SetStaticTable(nil); err == nil {
		t.Error("empty table should be rejected")
	}
	if err := p.SetStaticTable(staticTable4(8)[:1]); err == nil {
		t.Error("wrong island count should be rejected")
	}
	if err := p.SetStaticTable(staticTable4(2)); err == nil {
		t.Error("wrong level arity should be rejected")
	}
	if p.Static() {
		t.Error("failed installs should not enable static mode")
	}
	if err := p.SetStaticTable(staticTable4(8)); err != nil {
		t.Fatal(err)
	}
	if !p.Static() {
		t.Error("static mode not enabled")
	}
}

func TestStaticChoosesHighestFeasibleUniformLevel(t *testing.T) {
	p := newPlanner(t, 4)
	if err := p.SetStaticTable(staticTable4(8)); err != nil {
		t.Fatal(err)
	}
	obs := make([]IslandObs, 4)
	// Level l costs 4*(6+2l): level 5 costs 64, level 6 costs 72.
	levels := p.Choose(70, obs)
	for i, l := range levels {
		if l != 5 {
			t.Errorf("island %d level = %d, want uniform 5 under a 70 W budget", i, l)
		}
	}
	// Generous budget: top level.
	for _, l := range p.Choose(1000, obs) {
		if l != 7 {
			t.Error("generous budget should pick the top level")
		}
	}
	// Infeasible: bottom level.
	for _, l := range p.Choose(1, obs) {
		if l != 0 {
			t.Error("infeasible budget should pick the bottom level")
		}
	}
}

// The static mode is workload-blind: wildly different observations change
// nothing.
func TestStaticModeIgnoresObservations(t *testing.T) {
	p := newPlanner(t, 4)
	if err := p.SetStaticTable(staticTable4(8)); err != nil {
		t.Fatal(err)
	}
	a := p.Choose(70, []IslandObs{{BIPS: 100, PowerW: 1}, {}, {}, {}})
	b := p.Choose(70, []IslandObs{{BIPS: 0.01, PowerW: 99}, {}, {}, {}})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("static planner must not react to observations")
		}
	}
}
