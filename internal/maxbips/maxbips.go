// Package maxbips implements the MaxBIPS global power-management baseline
// (Isci et al., MICRO 2006) the paper compares against: every management
// interval, predict each island's power and throughput at every DVFS level
// from a static scaling table, then pick the combination of levels that
// maximizes total predicted BIPS subject to the predicted chip power staying
// under the budget.
//
// Two properties of MaxBIPS drive the paper's comparison results:
//
//   - it is open loop — the prediction table is trusted, there is no error
//     feedback — and it must pick a combination *below* the set-point, so
//     with only 8 discrete knobs per island it systematically under-consumes
//     the budget (Figure 11), and
//   - its predictions assume performance scales with frequency, which holds
//     per-core but degrades for multi-core islands mixing CPU- and
//     memory-bound threads (Figures 13 and 15).
//
// The combination search is exhaustive for small configurations (the
// original formulation) and falls back to a quantized-power dynamic program
// for larger island counts, where L^N would be intractable.
package maxbips

import (
	"errors"
	"fmt"
	"math"

	"github.com/cpm-sim/cpm/internal/power"
)

// IslandObs is the per-island observation the planner predicts from.
type IslandObs struct {
	// Level is the island's current DVFS level.
	Level int
	// PowerW is the measured island power at that level.
	PowerW float64
	// BIPS is the measured throughput at that level.
	BIPS float64
}

// Planner chooses DVFS level combinations.
type Planner struct {
	// tables carries one DVFS table per island (a homogeneous chip repeats
	// one table).
	tables []*power.DVFSTable
	static [][]float64
	// ExhaustiveLimit is the largest island count planned exhaustively;
	// larger configurations use the DP (default 6: 8⁶ ≈ 262k combinations).
	ExhaustiveLimit int
	// PowerQuantum is the DP's power resolution in watts (default 0.25).
	PowerQuantum float64
}

// NewPerIsland builds a planner over per-island DVFS tables (one per
// island, in island order), so every island is planned on its own
// operating points; a homogeneous chip passes the same table for every
// island. Observations passed to Choose must cover exactly these islands.
func NewPerIsland(tables []*power.DVFSTable) (*Planner, error) {
	if len(tables) == 0 {
		return nil, errors.New("maxbips: no island tables")
	}
	for i, t := range tables {
		if t == nil {
			return nil, fmt.Errorf("maxbips: nil DVFS table for island %d", i)
		}
	}
	return &Planner{tables: tables, ExhaustiveLimit: 6, PowerQuantum: 0.25}, nil
}

// predict fills per-island predicted power and BIPS for every level,
// scaling the observed operating point by the static table: BIPS ∝ f,
// P ∝ V²f (both normalized to the observed level).
func (p *Planner) predict(obs []IslandObs) (pw, bips [][]float64) {
	pw = make([][]float64, len(obs))
	bips = make([][]float64, len(obs))
	for i, o := range obs {
		t := p.tables[i]
		l := t.Levels()
		pw[i] = make([]float64, l)
		bips[i] = make([]float64, l)
		cur := t.Point(t.ClampLevel(o.Level))
		curVF := cur.VoltageV * cur.VoltageV * cur.FreqMHz
		for lvl := 0; lvl < l; lvl++ {
			op := t.Point(lvl)
			pw[i][lvl] = o.PowerW * (op.VoltageV * op.VoltageV * op.FreqMHz) / curVF
			bips[i][lvl] = o.BIPS * op.FreqMHz / cur.FreqMHz
		}
	}
	return pw, bips
}

// Choose returns the per-island DVFS levels maximizing predicted total BIPS
// with predicted total power ≤ budgetW. When even the all-lowest combination
// exceeds the predicted budget, it returns all-lowest (the scheme's failure
// mode under infeasible budgets).
func (p *Planner) Choose(budgetW float64, obs []IslandObs) []int {
	if len(obs) == 0 {
		return nil
	}
	if len(obs) != len(p.tables) {
		panic(fmt.Sprintf("maxbips: %d observations for a planner over %d island tables", len(obs), len(p.tables)))
	}
	if p.static != nil {
		return p.chooseStaticUniform(budgetW)
	}
	pw, bips := p.predict(obs)
	if len(obs) <= p.ExhaustiveLimit {
		return p.exhaustive(budgetW, pw, bips)
	}
	return p.quantizedDP(budgetW, pw, bips)
}

// exhaustive enumerates all L^N combinations with branch-and-bound on
// power: islands are processed in order, pruning prefixes whose minimal
// completion already busts the budget.
func (p *Planner) exhaustive(budgetW float64, pw, bips [][]float64) []int {
	n := len(pw)

	// minTail[i] = Σ_{j>=i} min_l pw[j][l]: the cheapest possible
	// completion from island i on. Level counts are per island (pw rows
	// are sized by each island's own table).
	minTail := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		minP := math.Inf(1)
		for lvl := 0; lvl < len(pw[i]); lvl++ {
			if pw[i][lvl] < minP {
				minP = pw[i][lvl]
			}
		}
		minTail[i] = minTail[i+1] + minP
	}

	best := make([]int, n) // all-lowest fallback
	bestBIPS := -1.0
	cur := make([]int, n)

	var rec func(i int, usedPower, gotBIPS float64)
	rec = func(i int, usedPower, gotBIPS float64) {
		if usedPower+minTail[i] > budgetW {
			return
		}
		if i == n {
			if gotBIPS > bestBIPS {
				bestBIPS = gotBIPS
				copy(best, cur)
			}
			return
		}
		for lvl := len(pw[i]) - 1; lvl >= 0; lvl-- { // try fast levels first
			cur[i] = lvl
			rec(i+1, usedPower+pw[i][lvl], gotBIPS+bips[i][lvl])
		}
	}
	rec(0, 0, 0)
	return best
}

// quantizedDP solves the same selection as a multiple-choice knapsack over
// power quantized to PowerQuantum bins.
func (p *Planner) quantizedDP(budgetW float64, pw, bips [][]float64) []int {
	n := len(pw)
	q := p.PowerQuantum
	if q <= 0 {
		q = 0.25
	}
	bins := int(budgetW/q) + 1

	const unset = -1
	// dp[b] = best BIPS using exactly ≤ b quanta so far; choice tracking
	// per island.
	dp := make([]float64, bins)
	choice := make([][]int16, n)
	reach := make([]bool, bins)
	reach[0] = true
	next := make([]float64, bins)
	nextReach := make([]bool, bins)

	for i := 0; i < n; i++ {
		choice[i] = make([]int16, bins)
		for b := range next {
			next[b] = 0
			nextReach[b] = false
			choice[i][b] = unset
		}
		for b := 0; b < bins; b++ {
			if !reach[b] {
				continue
			}
			for lvl := 0; lvl < len(pw[i]); lvl++ {
				cost := int(math.Ceil(pw[i][lvl] / q))
				nb := b + cost
				if nb >= bins {
					continue
				}
				v := dp[b] + bips[i][lvl]
				if !nextReach[nb] || v > next[nb] {
					nextReach[nb] = true
					next[nb] = v
					choice[i][nb] = int16(lvl)
				}
			}
		}
		copy(dp, next)
		copy(reach, nextReach)
	}

	// Find the best reachable bin, then backtrack.
	bestBin, bestV := -1, -1.0
	for b := 0; b < bins; b++ {
		if reach[b] && dp[b] > bestV {
			bestV, bestBin = dp[b], b
		}
	}
	out := make([]int, n)
	if bestBin < 0 {
		return out // infeasible: all-lowest
	}
	// Backtracking requires recomputing the path; rerun the DP storing
	// parent bins is costlier in memory, so instead walk islands in reverse
	// greedily: at each island find the level consistent with the recorded
	// choice table.
	b := bestBin
	for i := n - 1; i >= 0; i-- {
		lvl := choice[i][b]
		if lvl == unset {
			// The recorded choice at this bin belongs to a different path;
			// fall back to the cheapest level (conservative, cannot bust
			// the budget).
			lvl = 0
		}
		out[i] = int(lvl)
		cost := int(math.Ceil(pw[i][out[i]] / q))
		b -= cost
		if b < 0 {
			b = 0
		}
	}
	return out
}

// SetStaticTable installs a static per-island, per-level power prediction
// table (watts), switching the planner into the mode the paper actually
// evaluated: "with MaxBIPS, given a power budget, the scheme selects DVFS
// co-ordinates from a static prediction table" (§IV). A static table knows
// nothing about what each island is currently running, so performance is
// modelled as proportional to frequency with equal weight per core —
// making all feasible combinations of equal total frequency equivalent —
// and the planner picks the highest uniform level whose predicted chip
// power stays under the budget. This is what produces the paper's MaxBIPS
// behaviour: consumption always below the budget (the next level up busts
// it) and large performance loss at scale, since CPU-bound islands get
// throttled exactly as hard as memory-bound ones.
func (p *Planner) SetStaticTable(table [][]float64) error {
	if len(table) == 0 {
		return errors.New("maxbips: empty static table")
	}
	if len(table) != len(p.tables) {
		return fmt.Errorf("maxbips: static table covers %d islands, planner has %d", len(table), len(p.tables))
	}
	for i, row := range table {
		if len(row) != p.tables[i].Levels() {
			return fmt.Errorf("maxbips: island %d has %d levels, want %d", i, len(row), p.tables[i].Levels())
		}
	}
	p.static = table
	return nil
}

// Static reports whether a static table is installed.
func (p *Planner) Static() bool { return p.static != nil }

// chooseStaticUniform picks the highest uniform level fitting the budget.
// On a heterogeneous chip "uniform" means the same level index with each
// island clamped to its own table: shorter tables saturate at their top
// while longer ones keep climbing.
func (p *Planner) chooseStaticUniform(budgetW float64) []int {
	maxLevels := 0
	for _, row := range p.static {
		maxLevels = max(maxLevels, len(row))
	}
	best := 0
	for lvl := maxLevels - 1; lvl >= 0; lvl-- {
		total := 0.0
		for _, row := range p.static {
			total += row[min(lvl, len(row)-1)]
		}
		if total <= budgetW {
			best = lvl
			break
		}
	}
	out := make([]int, len(p.static))
	for i, row := range p.static {
		out[i] = min(best, len(row)-1)
	}
	return out
}
