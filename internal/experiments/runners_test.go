package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/cpm-sim/cpm/internal/metrics"
)

// TestDegradationGuardsBaseline pins the wrapper's behaviour on degenerate
// baselines: a run compared against a chip that executed (essentially)
// nothing reports zero degradation instead of ±Inf or NaN.
func TestDegradationGuardsBaseline(t *testing.T) {
	cases := []struct {
		name      string
		run, base float64
		want      float64
	}{
		{"zero baseline", 5, 0, 0},
		{"near-zero baseline", 5, 1e-12, 0},
		{"normal", 90, 100, 0.1},
		{"run above baseline", 110, 100, 0},
	}
	for _, c := range cases {
		got := degradation(runSummary{Instructions: c.run}, runSummary{Instructions: c.base})
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("%s: degradation = %v", c.name, got)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: degradation = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestOptionsMetricsRecordsTelemetry runs one experiment with a registry in
// Options and checks the runner plumbing attached the telemetry observer:
// the registry ends up with labelled families and a round-trippable export.
func TestOptionsMetricsRecordsTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	reg := metrics.NewRegistry()
	d, err := ByID("fig9")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(Options{Quick: true, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	if !strings.Contains(out, "cpm_intervals_total") {
		t.Errorf("no telemetry recorded:\n%s", out)
	}
	// runPlan labels its runs by the absolute budget, e.g. cpm-24.00W.
	if !strings.Contains(out, `run="cpm-`) {
		t.Errorf("cpm run label missing:\n%s", out)
	}
	if _, err := metrics.ParsePrometheus(strings.NewReader(out)); err != nil {
		t.Errorf("experiment telemetry does not round-trip: %v", err)
	}
	// CPM runs export the chip and PIC series, as on every other route.
	have := map[string]bool{}
	for _, f := range reg.Gather() {
		have[f.Name] = true
	}
	for _, name := range []string{"cpm_island_level_residency_intervals_total", "cpm_cache_hits_total", "cpm_pic_integrator"} {
		if !have[name] {
			t.Errorf("experiment telemetry lacks %s", name)
		}
	}
}
