package sim

import (
	"reflect"

	"github.com/cpm-sim/cpm/internal/snapshot"
)

// half classifies one Config field for identity: which key it reaches.
type half uint8

const (
	// unclassified is a field nobody has placed yet. Both keys cover it,
	// so it can only split caches and groups, never merge them, and the
	// identity completeness test fails until it is classified.
	unclassified half = iota
	// workloadHalf fields shape the frequency-independent record stream
	// (Sampler): both keys cover them.
	workloadHalf
	// computeHalf fields shape only the frequency-dependent half — power,
	// memory timing, thermal, variation, DVFS start, interconnect, the
	// interval length and a replayed trace: Key covers them, WorkloadKey
	// does not, so chips differing only here share one sampler.
	computeHalf
	// runInvariant fields change how a run executes, not what it
	// computes: neither key covers them.
	runInvariant
)

// identity is the one table deciding which Config inputs identify a run.
// Every cache, grouping and checkpoint key derives from it through Key and
// WorkloadKey; the reasons on the run-invariant fields are what entitle a
// key to leave them out.
var identity = map[string]half{
	"Seed":             workloadHalf,
	"Mix":              workloadHalf,
	"Core":             workloadHalf,
	"SharedL2":         workloadHalf,
	"L2PrefetchDegree": workloadHalf,
	"Tech":             workloadHalf,
	"IslandClasses":    workloadHalf,

	"Power":        computeHalf,
	"Mem":          computeHalf,
	"Thermal":      computeHalf,
	"Variation":    computeHalf,
	"IntervalSec":  computeHalf,
	"InitialLevel": computeHalf,
	"NoC":          computeHalf,
	"Replay":       computeHalf,

	// Island-parallel stepping is bit-identical to sequential stepping:
	// internal/core/testdata/calibration.json pins a Parallel calibration
	// equal to the sequential one in every float.
	"Parallel": runInvariant,
	// Recording captures the records a run produces without changing them.
	"RecordTraces": runInvariant,
}

// Key is the run identity of the configuration: the canonical encoding
// (snapshot.Encoder.Canonical) of every field except the run-invariant
// ones, hashed to 16 hex digits. Equal keys mean bit-identical chips.
func (c Config) Key() string { return c.key(computeHalf) }

// WorkloadKey is the identity of the configuration's record stream: Key
// restricted to the workload half. Chips with equal workload keys produce
// identical TraceRecord streams and may share one Sampler (internal/farm).
func (c Config) WorkloadKey() string { return c.key(workloadHalf) }

// key hashes every field whose class is at most upTo; unclassified sorts
// first, so both keys cover it.
func (c Config) key(upTo half) string {
	e := snapshot.NewEncoder()
	v := reflect.ValueOf(c)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		if identity[t.Field(i).Name] > upTo {
			continue
		}
		e.String(t.Field(i).Name)
		e.Canonical(v.Field(i))
	}
	return e.Key()
}
