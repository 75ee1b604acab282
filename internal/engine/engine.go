// Package engine is the unified run layer every simulator consumer sits
// on: experiment harnesses, the CLIs and the examples all drive the chip
// through one Session abstraction (config → warmup epochs → measurement
// window → summary) instead of re-implementing their own warmup/measure/
// record loops.
//
// The pieces compose as follows:
//
//   - a Runner adapts one steppable system — the CPM-managed chip
//     (CPMRunner), the raw unmanaged chip (ChipRunner) or the MaxBIPS
//     baseline (MaxBIPSRunner) — to a single per-interval Step observation;
//   - a Session drives a Runner through warmup and measurement, aggregates
//     the measurement window into a Summary, and fans every run-lifecycle,
//     per-step and per-GPM-epoch event out to pluggable Observers, so
//     tracing, CSV export, ASCII charts and shape assertions are composable
//     instead of bespoke field-scraping;
//   - a Pool executes independent Sessions concurrently with deterministic
//     per-job seeding and order-preserving results, which is what makes
//     parameter sweeps scale with the machine while staying byte-identical
//     to serial execution.
package engine

import (
	"github.com/cpm-sim/cpm/internal/pic"
	"github.com/cpm-sim/cpm/internal/sim"
)

// RunInfo describes a session to observers at run start.
type RunInfo struct {
	// Label names the run in reports ("cpm", "maxbips", "unmanaged", or a
	// caller-chosen tag).
	Label string
	// Islands and Cores describe the chip.
	Islands int
	Cores   int
	// Period is the number of PIC intervals per GPM epoch.
	Period int
	// WarmIntervals and MeasureIntervals are the two window lengths.
	WarmIntervals    int
	MeasureIntervals int
	// BudgetW is the chip power budget (0 for unmanaged runs).
	BudgetW float64
	// IntervalSec is the simulation interval length.
	IntervalSec float64
	// Chip is the simulated chip, for observers that read it directly
	// (cache counters, DVFS table depths).
	Chip *sim.CMP
	// PICs are the per-island controllers of a CPM run, in island order
	// (nil for unmanaged and MaxBIPS runs).
	PICs []*pic.Controller
}

// minBaselineInstr is the smallest baseline instruction count a
// degradation ratio is defined against; anything at or below it (an empty
// or degenerate measurement window) yields a degradation of 0 rather than
// an Inf/NaN that would poison downstream aggregates.
const minBaselineInstr = 1e-9

// Degradation returns the throughput loss of run vs baseline as a fraction
// in [0, 1]. A zero or near-zero baseline (nothing executed during the
// window) returns 0 by definition.
func Degradation(run, baseline Summary) float64 {
	return DegradationRatio(run.Instructions, baseline.Instructions)
}

// DegradationRatio is Degradation over raw instruction counts.
func DegradationRatio(runInstr, baseInstr float64) float64 {
	if baseInstr <= minBaselineInstr {
		return 0
	}
	d := 1 - runInstr/baseInstr
	if d < 0 {
		return 0
	}
	if d > 1 {
		return 1
	}
	return d
}
