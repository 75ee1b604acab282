package experiments

import (
	"fmt"
	"strings"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/gpm"
	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/trace"
	"github.com/cpm-sim/cpm/internal/workload"
)

func init() {
	register(Definition{
		ID:    "technode",
		Title: "Optimal big/little budget split across technology nodes",
		Paper: "Extension: Lumos-scaled 45-8nm big.LITTLE chips; how the budget share the big islands should get shifts as leakage grows and vth eats the bottom of the table",
		Run:   runTechNode,
	})
}

// splitPolicy provisions a fixed fraction of the chip budget to the
// out-of-order islands (split equally among them) and the remainder to the
// little islands — the open-loop knob the technode study sweeps.
type splitPolicy struct {
	bigFrac float64
	classes []power.CoreClass
}

func (p splitPolicy) Name() string { return "fixed-split" }

func (p splitPolicy) Provision(budgetW float64, obs []gpm.IslandObs) []float64 {
	out := make([]float64, len(obs))
	nBig, nLittle := 0, 0
	for i := range obs {
		if p.classes[i] == power.ClassOoO {
			nBig++
		} else {
			nLittle++
		}
	}
	for i := range obs {
		if p.classes[i] == power.ClassOoO {
			out[i] = budgetW * p.bigFrac / float64(nBig)
		} else {
			out[i] = budgetW * (1 - p.bigFrac) / float64(nLittle)
		}
	}
	return out
}

// runTechNode sweeps the big-island budget share on a big.LITTLE Mix-1
// chip at every technology node and reports the BIPS-optimal split. The
// PICs run in the oracle-power ablation (measured island power as
// feedback), so each node needs no per-node transducer calibration and the
// comparison isolates the physics — scaled tables, vth-trimmed level
// counts, leakage share — from estimator quality.
func runTechNode(o Options) (Result, error) {
	classes := []power.CoreClass{
		power.ClassOoO, power.ClassLittleIO, power.ClassOoO, power.ClassLittleIO,
	}
	nodes := append([]power.TechNode{0}, power.Nodes()...)
	splits := []float64{0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85}
	warm, meas := 2, o.epochs(8)

	var b strings.Builder
	rows := [][]string{}
	metrics := map[string]float64{}
	set := trace.NewSet("big-island budget share")
	for _, node := range nodes {
		cfg := sim.DefaultConfig(workload.Mix1())
		cfg.Seed = o.seed()
		cfg.Parallel = true
		cfg.IslandClasses = classes
		label := "90nm-base"
		if node != 0 {
			cfg.Tech = power.TechConfig{Node: node, Variant: power.ITRS}
			label = cfg.Tech.String()
		}
		unmanagedW, _, err := core.RunUnmanaged(cfg, -1, warm*20, meas*20)
		if err != nil {
			return Result{}, fmt.Errorf("technode %s unmanaged: %w", label, err)
		}
		budget := 0.8 * unmanagedW

		bestSplit, bestBIPS, equalBIPS := 0.0, -1.0, 0.0
		for _, s := range splits {
			bips, err := runSplit(cfg, budget, s, classes, warm, meas, o)
			if err != nil {
				return Result{}, fmt.Errorf("technode %s split %.2f: %w", label, s, err)
			}
			set.Get(label).Append(bips)
			if bips > bestBIPS {
				bestSplit, bestBIPS = s, bips
			}
			if s == 0.50 {
				equalBIPS = bips
			}
		}
		gain := 0.0
		if equalBIPS > 0 {
			gain = 100 * (bestBIPS/equalBIPS - 1)
		}
		rows = append(rows, []string{
			label,
			fmt.Sprintf("%.1f W", budget),
			fmt.Sprintf("%.2f", bestSplit),
			fmt.Sprintf("%.2f", bestBIPS),
			fmt.Sprintf("%+.1f%%", gain),
		})
		key := label
		metrics["opt_big_share_"+key] = bestSplit
		metrics["bips_"+key] = bestBIPS
		metrics["budget_w_"+key] = budget
	}
	b.WriteString("Big-island budget share maximizing chip BIPS, 0.8 budget, Mix-1 big.LITTLE (2 OoO + 2 little islands), ITRS scaling:\n")
	b.WriteString(trace.Table([]string{"Node", "Budget", "Best big share", "BIPS", "vs 50/50"}, rows))
	b.WriteString("\nShares sweep 0.50-0.85; the little islands absorb the remainder.\n")
	return Result{
		ID:      "technode",
		Title:   "Optimal big/little budget split across technology nodes",
		Text:    b.String(),
		Sets:    map[string]*trace.Set{"technode": set},
		Metrics: metrics,
	}, nil
}

// runSplit runs one (node, split) point: CPM with the fixed-split policy
// in the oracle-power ablation, returning the mean measured-epoch BIPS.
func runSplit(cfg sim.Config, budgetW, bigFrac float64, classes []power.CoreClass, warmEpochs, measEpochs int, o Options) (float64, error) {
	sum, err := runPlan(cfg, check.Plan{
		Kind: check.CPM,
		Core: core.Config{
			BudgetW:        budgetW,
			Policy:         splitPolicy{bigFrac: bigFrac, classes: classes},
			UseOraclePower: true,
		},
		Session: engine.SessionConfig{WarmEpochs: warmEpochs, MeasureEpochs: measEpochs},
	}, o)
	return sum.MeanBIPS, err
}
