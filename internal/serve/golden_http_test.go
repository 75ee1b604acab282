package serve

import (
	"testing"

	"github.com/cpm-sim/cpm/internal/check"
)

// TestGoldenOverHTTP is the service's equivalence contract: every canonical
// scenario served over HTTP — as a single report and as an NDJSON stream —
// must reproduce the exact pinned golden digests the in-process path
// records. A server that perturbs the simulation (shared state, observer
// interference, request mangling) diverges here.
func TestGoldenOverHTTP(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 16})
	for _, name := range check.ScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			ref := loadRef(t, name)

			// Non-streamed report.
			resp := postJSON(t, ts, runDoc(Request{Scenario: name, Seed: goldenSeed}))
			body := wantStatus(t, resp, 200)
			if got := resp.Header.Get("Content-Type"); got != "application/json" {
				t.Errorf("report Content-Type %q", got)
			}
			rep := decodeReport(t, body)
			if err := traceOf(rep).Diff(ref); err != nil {
				t.Errorf("served report diverged from the pinned golden: %v", err)
			}
			if len(rep.EpochSeries) != rep.Epochs {
				t.Errorf("report has %d epoch rows for %d epochs", len(rep.EpochSeries), rep.Epochs)
			}
			for i, e := range rep.EpochSeries {
				if e.Digest != rep.EpochDigests[i] {
					t.Errorf("epoch %d row digest %s != digest list %s", i, e.Digest, rep.EpochDigests[i])
				}
			}

			// Streamed: same simulation (must be a cache hit), same digests.
			resp = postJSON(t, ts, runDoc(Request{Scenario: name, Seed: goldenSeed, Stream: true}))
			if got := resp.Header.Get(HeaderCache); got != outcomeHit {
				t.Errorf("streamed request outcome %q, want %q (stream must not re-run)", got, outcomeHit)
			}
			if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
				t.Errorf("stream Content-Type %q", got)
			}
			epochs, trailer := decodeStream(t, wantStatus(t, resp, 200))
			if err := traceOf(trailer).Diff(ref); err != nil {
				t.Errorf("streamed trailer diverged from the pinned golden: %v", err)
			}
			if len(epochs) != trailer.Epochs {
				t.Errorf("stream carried %d epoch lines for %d epochs", len(epochs), trailer.Epochs)
			}
			for i, e := range epochs {
				if e.Digest != ref.EpochDigests[i] {
					t.Errorf("streamed epoch %d digest %s, golden %s", i, e.Digest, ref.EpochDigests[i])
				}
			}
			if trailer.EpochSeries != nil {
				t.Errorf("stream trailer duplicates the epoch series")
			}
		})
	}

	// A second full pass must be pure cache: no additional simulations.
	runs := srv.Stats().Runs
	for _, name := range check.ScenarioNames() {
		resp := postJSON(t, ts, runDoc(Request{Scenario: name, Seed: goldenSeed}))
		if got := resp.Header.Get(HeaderCache); got != outcomeHit {
			t.Errorf("%s second pass outcome %q, want hit", name, got)
		}
		rep := decodeReport(t, wantStatus(t, resp, 200))
		if err := traceOf(rep).Diff(loadRef(t, name)); err != nil {
			t.Errorf("%s cached report diverged: %v", name, err)
		}
	}
	if got := srv.Stats().Runs; got != runs {
		t.Errorf("second pass ran %d extra simulations, want 0", got-runs)
	}
}
