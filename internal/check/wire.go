package check

import (
	"fmt"

	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/sim"
)

// ForChip derives a Config from a simulator instance: per-island DVFS
// tables and maxima, chip maximum, thermal envelope parameters. budgetW of
// 0 configures an unmanaged run (no budget check).
func ForChip(cmp *sim.CMP, budgetW float64) Config {
	n := cmp.NumIslands()
	cfg := Config{
		BudgetW:       budgetW,
		Tables:        make([]*power.DVFSTable, n),
		IslandMaxW:    make([]float64, n),
		MaxChipPowerW: cmp.MaxChipPowerW(),
		Thermal:       cmp.Thermals().Config(),
	}
	for i := 0; i < n; i++ {
		cfg.Tables[i] = cmp.IslandTable(i)
		cfg.IslandMaxW[i] = cmp.IslandMaxPowerW(i)
		// The thermal envelope bounds the hottest core class.
		if w := cmp.IslandModel(i).CoreMaxPower(); w > cfg.MaxCorePowerW {
			cfg.MaxCorePowerW = w
		}
	}
	return cfg
}

// ForCPM wires the full standard suite for a managed run: everything All
// gives for the chip, plus PIDBounds over the controller's live PICs.
func ForCPM(ctl *core.CPM, budgetW float64) *Suite {
	s := All(ForChip(ctl.Chip(), budgetW))
	s.Add(NewPIDBounds(ctl.PICs()...))
	return s
}

// Kind selects which of the paper's three stacks Wire builds.
type Kind int

const (
	// Unmanaged runs the bare chip: the baseline every degradation figure
	// normalizes against.
	Unmanaged Kind = iota
	// CPM is the two-tier loop: per-island PICs under the GPM.
	CPM
	// MaxBIPS is the open-loop baseline, planning from the static
	// prediction table (engine.NewStaticPlanner).
	MaxBIPS
)

// String names the kind; it is the default session label.
func (k Kind) String() string {
	switch k {
	case Unmanaged:
		return "unmanaged"
	case CPM:
		return "cpm"
	case MaxBIPS:
		return "maxbips"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Plan describes one stack for Wire.
type Plan struct {
	Kind Kind
	// Core configures the CPM controller. For every kind, Core.BudgetW and
	// Core.GPMPeriod are also the session's budget and period (a zero
	// budget for an unmanaged run).
	Core core.Config
	// Session shapes the run; Wire overrides its BudgetW and Period from
	// Core and labels it with Kind when Label is empty.
	Session engine.SessionConfig
	// Check attaches the standard invariant suite.
	Check bool
}

// maxBIPSTolFrac widens the MaxBIPS budget and island tolerances. MaxBIPS
// holds *predicted* power under budget; realized power overshooting it (by
// up to ~20% in the paper) is the paper's result for it, not a bug.
const maxBIPSTolFrac = 0.25

// Wire builds the controller or static planner of p over cmp, the invariant
// suite when p.Check (nil otherwise) and the session, observed by the suite
// first and then extra. Every route that runs a chip's stack builds it
// here, so each rule is decided once: the session's budget and period come
// from p.Core, MaxBIPS tolerances widen to maxBIPSTolFrac, and budget
// conservation is dropped only for a stuck-island fault plan — a pinned
// actuator breaks provisioning by construction, while noise, bias and GPM
// drops must still hold the budget.
func Wire(cmp *sim.CMP, p Plan, extra ...engine.Observer) (*engine.Session, *Suite, error) {
	var (
		r   engine.Runner
		ctl *core.CPM
		err error
	)
	switch p.Kind {
	case Unmanaged:
		r = engine.NewChipRunner(cmp)
	case CPM:
		if ctl, err = core.New(cmp, p.Core); err != nil {
			return nil, nil, err
		}
		r = engine.NewCPMRunner(ctl)
	case MaxBIPS:
		planner, err := engine.NewStaticPlanner(cmp)
		if err != nil {
			return nil, nil, err
		}
		if r, err = engine.NewMaxBIPSRunner(cmp, planner, p.Core.BudgetW, p.Core.GPMPeriod); err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("check: unknown stack kind %v", p.Kind)
	}
	var suite *Suite
	obs := extra
	if p.Check {
		ccfg := ForChip(cmp, p.Core.BudgetW)
		if f := p.Core.Faults; ctl != nil && f != nil && f.StuckIsland >= 0 {
			ccfg.BudgetW = 0
		}
		if p.Kind == MaxBIPS {
			ccfg.BudgetTolFrac, ccfg.IslandTolFrac = maxBIPSTolFrac, maxBIPSTolFrac
		}
		suite = All(ccfg)
		if ctl != nil {
			suite.Add(NewPIDBounds(ctl.PICs()...))
		}
		obs = append([]engine.Observer{suite}, extra...)
	}
	scfg := p.Session
	scfg.BudgetW, scfg.Period = p.Core.BudgetW, p.Core.GPMPeriod
	if scfg.Label == "" {
		scfg.Label = p.Kind.String()
	}
	sess, err := engine.NewSession(r, scfg, obs...)
	if err != nil {
		return nil, nil, err
	}
	return sess, suite, nil
}
