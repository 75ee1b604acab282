package check

import (
	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/pic"
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
	return ForCPMWithConfig(ctl, ForChip(ctl.Chip(), budgetW))
}

// ForCPMWithConfig is ForCPM with an explicit (possibly adjusted) Config —
// e.g. fault-injection runs disable the budget check, since breaking the
// provisioning contract is exactly what the injected fault does.
func ForCPMWithConfig(ctl *core.CPM, cfg Config) *Suite {
	s := All(cfg)
	pics := make([]*pic.Controller, ctl.Chip().NumIslands())
	for i := range pics {
		pics[i] = ctl.PIC(i)
	}
	s.Add(NewPIDBounds(pics...))
	return s
}
