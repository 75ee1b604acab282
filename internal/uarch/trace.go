package uarch

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"github.com/cpm-sim/cpm/internal/workload"
)

// TraceSet is a saved collection of per-core traces plus the profile names
// needed to replay them (see sim.Config.Replay): because TraceRecords are
// frequency-independent, a trace captured under one DVFS trajectory can be
// replayed under any other — e.g. to compare controllers on identical
// workload behaviour, or to rerun experiments an order of magnitude faster
// by skipping phase generation and cache simulation.
type TraceSet struct {
	// Benchmarks[coreID] names the profile the core ran.
	Benchmarks map[int]string
	// Records[coreID] is the interval trace.
	Records map[int][]TraceRecord
}

// SaveTraces gob-encodes a TraceSet.
func SaveTraces(w io.Writer, set TraceSet) error {
	if len(set.Records) == 0 {
		return errors.New("uarch: empty trace set")
	}
	return gob.NewEncoder(w).Encode(set)
}

// LoadTraces decodes a TraceSet and validates its shape.
func LoadTraces(r io.Reader) (TraceSet, error) {
	var set TraceSet
	if err := gob.NewDecoder(r).Decode(&set); err != nil {
		return TraceSet{}, fmt.Errorf("uarch: decoding traces: %w", err)
	}
	for id, recs := range set.Records {
		if len(recs) == 0 {
			return TraceSet{}, fmt.Errorf("uarch: core %d has an empty trace", id)
		}
		if _, ok := set.Benchmarks[id]; !ok {
			return TraceSet{}, fmt.Errorf("uarch: core %d has no benchmark name", id)
		}
		if _, err := workload.ByName(set.Benchmarks[id]); err != nil {
			return TraceSet{}, err
		}
	}
	return set, nil
}
