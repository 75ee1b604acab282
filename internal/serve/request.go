package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/snapshot"
)

// MaxRequestBytes bounds the size of one request document; anything larger
// is rejected before it reaches the decoder.
const MaxRequestBytes = 1 << 20

// ResultVersion names the response-rendering generation. It participates in
// every cache key, so a change to the report layout (like a bump of
// snapshot.Version for simulator-state layout) invalidates cached results
// instead of serving stale shapes.
const ResultVersion = 1

// Epoch-window caps: a request may widen the canonical 2+4 epoch windows,
// but not past these bounds, so a single request cannot buy an unbounded
// amount of simulation.
const (
	MaxWarmEpochs    = 64
	MaxMeasureEpochs = 256
)

// Request is one simulation submission: which canonical scenario to run,
// under which seed, against which budget. The zero value of every optional
// field means "the scenario's own default"; Resolve fills the defaults in,
// and the resolved request — not the raw one — is the unit of caching and
// coalescing.
type Request struct {
	// Scenario names a canonical golden scenario (check.Canonical).
	Scenario string `json:"scenario"`
	// Seed is the simulation seed; 0 (or absent) means the golden seed 1.
	Seed uint64 `json:"seed,omitempty"`
	// BudgetFrac overrides the scenario's budget fraction of calibrated
	// unmanaged power; 0 means the scenario default. Must be finite and in
	// (0, 1].
	BudgetFrac float64 `json:"budget_frac,omitempty"`
	// WarmEpochs / MeasureEpochs override the run windows (GPM epochs);
	// 0 means the scenario default (canonically 2 warm + 4 measured).
	WarmEpochs    int `json:"warm_epochs,omitempty"`
	MeasureEpochs int `json:"measure_epochs,omitempty"`
	// Stream selects the NDJSON per-epoch streaming response instead of the
	// single JSON report. Stream does not participate in the cache key:
	// both renderings come from the same simulation.
	Stream bool `json:"stream,omitempty"`
}

// DecodeRequest reads one JSON request document. Unknown fields and
// trailing data are errors — the service is a determinism oracle, so a
// silently dropped field (a typo'd "sead") must not turn into a run with
// defaults.
func DecodeRequest(r io.Reader) (Request, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxRequestBytes+1))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("serve: decoding request: %w", err)
	}
	if dec.More() {
		return Request{}, errors.New("serve: trailing data after request object")
	}
	return req, nil
}

// Validate rejects structurally invalid requests: a missing scenario name,
// a non-finite or out-of-range budget fraction (the same guard pic and gpm
// apply at their own boundaries), negative or oversized run windows.
// Whether the scenario name resolves is the server's concern, not the
// codec's.
func (r Request) Validate() error {
	if r.Scenario == "" {
		return errors.New("serve: request needs a scenario name")
	}
	if math.IsNaN(r.BudgetFrac) || math.IsInf(r.BudgetFrac, 0) {
		return fmt.Errorf("serve: non-finite budget_frac %v", r.BudgetFrac)
	}
	if r.BudgetFrac < 0 || r.BudgetFrac > 1 {
		return fmt.Errorf("serve: budget_frac %v outside (0, 1] (0 = scenario default)", r.BudgetFrac)
	}
	if r.WarmEpochs < 0 || r.WarmEpochs > MaxWarmEpochs {
		return fmt.Errorf("serve: warm_epochs %d outside [0, %d]", r.WarmEpochs, MaxWarmEpochs)
	}
	if r.MeasureEpochs < 0 || r.MeasureEpochs > MaxMeasureEpochs {
		return fmt.Errorf("serve: measure_epochs %d outside [0, %d]", r.MeasureEpochs, MaxMeasureEpochs)
	}
	return nil
}

// Resolve validates the request and fills every defaulted field from the
// named scenario, returning the fully determined request: seed, budget
// fraction and both epoch windows all concrete. Two submissions that mean
// the same run resolve to the same value — and therefore the same cache
// key — whether the client spelled the defaults out or not.
func (r Request) Resolve() (Request, check.Scenario, error) {
	if err := r.Validate(); err != nil {
		return Request{}, check.Scenario{}, err
	}
	sc, err := check.ScenarioByName(r.Scenario)
	if err != nil {
		return Request{}, check.Scenario{}, err
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.BudgetFrac == 0 {
		r.BudgetFrac = sc.BudgetFrac
	}
	warm, meas := sc.Defaults()
	if r.WarmEpochs == 0 {
		r.WarmEpochs = warm
	}
	if r.MeasureEpochs == 0 {
		r.MeasureEpochs = meas
	}
	sc.BudgetFrac = r.BudgetFrac
	sc.WarmEpochs = r.WarmEpochs
	sc.MeasureEpochs = r.MeasureEpochs
	return r, sc, nil
}

// CacheKey is the content address of the request's result, 16 hex digits:
// the scenario's run identity (check.Scenario.Key) at the resolved seed,
// budget and windows, versioned by the snapshot state-layout version and
// the serve result version so a layout change invalidates cached results
// instead of serving stale shapes. Explicit and implicit spellings of one
// run share it; Stream is deliberately not part of the identity — both
// response renderings are derived from one cached simulation. A request
// that does not resolve has no result and gets the empty key.
func (r Request) CacheKey() string {
	r, sc, err := r.Resolve()
	if err != nil {
		return ""
	}
	return cacheKey(sc, r.Seed)
}

// cacheKey is CacheKey of a resolved request for scenario sc at seed.
func cacheKey(sc check.Scenario, seed uint64) string {
	e := snapshot.NewEncoder()
	e.String(sc.Key(seed))
	e.U32(snapshot.Version)
	e.Int(ResultVersion)
	return e.Key()
}
