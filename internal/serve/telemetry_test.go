package serve

import "testing"

// TestServedRunTelemetryParity: a served CPM run exports the chip and PIC
// series the observer discovers from the session, like every other route.
func TestServedRunTelemetryParity(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1})
	wantStatus(t, postJSON(t, ts, runDoc(shortRun("cpm-default", goldenSeed))), 200)
	have := map[string]bool{}
	for _, f := range srv.Registry().Gather() {
		have[f.Name] = true
	}
	for _, name := range []string{"cpm_island_level_residency_intervals_total", "cpm_cache_hits_total", "cpm_pic_integrator"} {
		if !have[name] {
			t.Errorf("served run telemetry lacks %s", name)
		}
	}
}
