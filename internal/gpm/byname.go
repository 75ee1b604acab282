package gpm

import (
	"fmt"

	"github.com/cpm-sim/cpm/internal/thermal"
)

// ByName builds a fresh instance of a named provisioning policy with the
// paper's settings. Policies can carry history, so every run needs its own
// instance:
//
//   - performance: Equations 4–6;
//   - equal: an equal split of the budget;
//   - thermal: the Figure 18 constraint set over a 2x4 floorplan of
//     single-core islands;
//   - variation: the §IV-B greedy EPI search (Figures 19/20);
//   - mpc and cache: the model-predictive and cache-aware extensions.
func ByName(name string) (Policy, error) {
	switch name {
	case "performance":
		return &PerformanceAware{}, nil
	case "equal":
		return EqualShare{}, nil
	case "thermal":
		fp, err := thermal.Grid(2, 4)
		if err != nil {
			return nil, err
		}
		return &ThermalAware{
			Base: &PerformanceAware{}, Floorplan: fp,
			AdjacentPairCap: 0.30, ConsecutiveLimit: 2,
			SoloCap: 0.20, SoloConsecutiveLimit: 4,
		}, nil
	case "variation":
		return &VariationAware{StepFrac: 0.08, HoldIntervals: 1, MinShareFrac: 0.7}, nil
	case "mpc":
		return &ModelPredictive{}, nil
	case "cache":
		return &CacheAware{}, nil
	default:
		return nil, fmt.Errorf("gpm: unknown policy %q (want performance, equal, thermal, variation, mpc, cache)", name)
	}
}
