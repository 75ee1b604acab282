package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/metrics"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/workload"
)

func testOptions(workers int) sweepOptions {
	return sweepOptions{
		Mix:     workload.Mix1(),
		Policy:  "performance",
		Fracs:   []float64{0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95},
		Seed:    1,
		Warm:    1,
		Epochs:  2,
		Workers: workers,
	}
}

// TestSweepOutputIdenticalAcrossWorkerCounts is the CSV-level determinism
// guarantee: pooled execution must be byte-identical to serial.
func TestSweepOutputIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	var serial, pooled bytes.Buffer
	if err := sweep(testOptions(1), &serial, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := sweep(testOptions(8), &pooled, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), pooled.Bytes()) {
		t.Fatalf("workers=8 output differs from workers=1:\n--- serial ---\n%s--- pooled ---\n%s",
			serial.String(), pooled.String())
	}
	if serial.Len() == 0 {
		t.Fatal("empty sweep output")
	}
}

// TestWarmStartSweepDeterministic pins the forked warm-up path: every
// budget point restores the same warm snapshot, so the CSV must still be
// byte-identical across worker counts, and the checked suite must stay
// clean on the forked chips.
func TestWarmStartSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("warm-start sweep in -short mode")
	}
	warmOpts := func(workers int) sweepOptions {
		o := testOptions(workers)
		o.Fracs = []float64{0.7, 0.8, 0.9}
		o.WarmStart = true
		o.Check = true
		return o
	}
	var serial, pooled bytes.Buffer
	if err := sweep(warmOpts(1), &serial, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := sweep(warmOpts(8), &pooled, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), pooled.Bytes()) {
		t.Fatalf("warm-started workers=8 output differs from workers=1:\n--- serial ---\n%s--- pooled ---\n%s",
			serial.String(), pooled.String())
	}
	if serial.Len() == 0 {
		t.Fatal("empty warm-started sweep output")
	}
}

func TestParseBudgets(t *testing.T) {
	got, err := parseBudgets(" 0.5, 0.8 ,0.95")
	if err != nil || len(got) != 3 || got[0] != 0.5 || got[2] != 0.95 {
		t.Fatalf("parseBudgets = %v, %v", got, err)
	}
	for _, bad := range []string{"", "x", "0", "1.5", "0.5,,0.8"} {
		if _, err := parseBudgets(bad); err == nil {
			t.Errorf("parseBudgets(%q) accepted", bad)
		}
	}
}

func TestParseSweepCLIValid(t *testing.T) {
	o, err := parseSweepCLI([]string{"-mix", "mix3", "-policy", "equal", "-budgets", "0.7,0.8", "-warm", "2", "-epochs", "4", "-check", "-warmstart", "-adaptive"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.Mix.Name != "Mix-3" || o.Policy != "equal" || len(o.Fracs) != 2 ||
		o.Warm != 2 || o.Epochs != 4 || !o.Check || !o.Parallel || !o.WarmStart || !o.Adaptive {
		t.Errorf("options not threaded: %+v", o)
	}
}

// TestSweepAdaptiveAndPredictiveRoutes pins the new control configurations
// through both sweep routes: for each of (-adaptive fixed-policy, -policy
// mpc, -policy cache) the farm route must emit byte-identical CSV to the
// resilient route, under the invariant suite.
func TestSweepAdaptiveAndPredictiveRoutes(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive/predictive sweeps in -short mode")
	}
	cases := []struct {
		name     string
		policy   string
		adaptive bool
	}{
		{"adaptive", "performance", true},
		{"mpc", "mpc", false},
		{"cache", "cache", false},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			opts := func(resilient bool) sweepOptions {
				o := testOptions(2)
				o.Fracs = []float64{0.8}
				o.Policy = c.policy
				o.Adaptive = c.adaptive
				o.Check = true
				o.Resilient = resilient
				return o
			}
			farmed := runSweep(t, opts(false))
			if resilient := runSweep(t, opts(true)); !bytes.Equal(resilient, farmed) {
				t.Fatalf("farm route differs from resilient:\n--- farm ---\n%s--- resilient ---\n%s",
					farmed, resilient)
			}
		})
	}
}

func TestParseSweepCLIDiagFlags(t *testing.T) {
	o, err := parseSweepCLI([]string{"-metrics", "out.prom", "-pprof", "localhost:6060", "-trace", "run.trace"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.Diag == nil {
		t.Fatal("diag flags not bound")
	}
	if o.Diag.MetricsPath != "out.prom" || o.Diag.PprofAddr != "localhost:6060" || o.Diag.TracePath != "run.trace" {
		t.Errorf("diag flags not threaded: %+v", o.Diag)
	}
	if reg := o.Diag.Registry(); reg == nil {
		t.Error("-metrics given but Registry() == nil")
	}
	// Without -metrics the registry must stay nil so runs skip the observer.
	o, err = parseSweepCLI(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if reg := o.Diag.Registry(); reg != nil {
		t.Error("no -metrics flag but Registry() != nil")
	}
}

func TestParseSweepCLIRejects(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		want string
	}{
		{"zero seed", []string{"-seed", "0"}, "-seed must be non-zero"},
		{"negative warm", []string{"-warm", "-1"}, "-warm must be >= 0"},
		{"zero epochs", []string{"-epochs", "0"}, "-epochs must be > 0"},
		{"negative epochs", []string{"-epochs", "-3"}, "-epochs must be > 0"},
		{"negative workers", []string{"-workers", "-1"}, "-workers must be >= 0"},
		{"bad mix", []string{"-mix", "nope"}, "nope"},
		{"bad policy", []string{"-policy", "nope"}, "unknown policy"},
		{"bad budget", []string{"-budgets", "1.5"}, "out of (0, 1]"},
		{"empty budgets", []string{"-budgets", ""}, "bad budget"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parseSweepCLI(c.argv, io.Discard)
			if err == nil {
				t.Fatalf("parseSweepCLI(%v) accepted", c.argv)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("parseSweepCLI(%v) = %v, want error containing %q", c.argv, err, c.want)
			}
		})
	}
}

// TestSweepChecked runs a tiny checked sweep end to end: the -check plumbing
// must attach the suite and the canonical mix must come back clean.
func TestSweepChecked(t *testing.T) {
	if testing.Short() {
		t.Skip("checked sweep in -short mode")
	}
	o := testOptions(1)
	o.Fracs = []float64{0.8}
	o.Check = true
	var out bytes.Buffer
	if err := sweep(o, &out, io.Discard); err != nil {
		t.Fatalf("checked sweep failed: %v", err)
	}
	if !strings.Contains(out.String(), "budget_frac") {
		t.Fatalf("no CSV emitted:\n%s", out.String())
	}
}

// BenchmarkPoolSweep compares a serial 8-point farm sweep against the
// pooled executor, one sampler group per point so the pool has groups to
// spread. Calibration is shared setup; island-level parallelism is disabled
// so the two concurrency levels don't compete for cores.
func BenchmarkPoolSweep(b *testing.B) {
	o := testOptions(1)
	o.Parallel = false
	o.FarmSize = 1
	cfg := sim.DefaultConfig(o.Mix)
	cfg.Seed = o.Seed
	cal, err := core.Calibrate(cfg, 60, 240)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, workers int) {
		b.Helper()
		o := o
		o.Workers = workers
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := sweepFarm(cfg, cal, o, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("pooled", func(b *testing.B) { run(b, 0) })
}

// runSweep executes one sweep and returns the CSV bytes.
func runSweep(t *testing.T, o sweepOptions) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := sweep(o, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("empty sweep output")
	}
	return out.Bytes()
}

// The pinned sweeps are the CSVs of
//
//	cpmsweep -budgets 0.6,0.8,0.95 -warm 2 -epochs 3 -check [-warmstart]
//
// captured when an independent-simulation (scalar) route still existed
// next to the farm and resilient routes; all three printed these bytes.
// Every remaining route must keep printing them.
const (
	pinnedColdCSV      = "testdata/sweep_cold.csv"
	pinnedWarmstartCSV = "testdata/sweep_warmstart.csv"
)

var pinnedArgs = []string{"-budgets", "0.6,0.8,0.95", "-warm", "2", "-epochs", "3", "-check"}

// checkPinnedRoutes runs the pinned sweep once per route (extra flags
// appended to pinnedArgs) and demands the pinned CSV bytes from each.
func checkPinnedRoutes(t *testing.T, pinned string, routes [][]string) {
	t.Helper()
	want, err := os.ReadFile(pinned)
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range routes {
		o, err := parseSweepCLI(append(append([]string(nil), pinnedArgs...), route...), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if got := runSweep(t, o); !bytes.Equal(got, want) {
			t.Errorf("route %v differs from %s:\n--- pinned ---\n%s--- got ---\n%s", route, pinned, want, got)
		}
	}
}

// farmRoutes are the farm route's scheduling variants: pool size and
// sampler-group cap change wall-clock only, never the CSV.
func farmRoutes(extra ...string) [][]string {
	var out [][]string
	for _, workers := range []string{"1", "4"} {
		for _, size := range []string{"1", "2"} {
			out = append(out, append([]string{"-workers", workers, "-farm-size", size}, extra...))
		}
	}
	return out
}

// TestSweepFarmMatchesScalar is the sweep-level equivalence contract for
// cold sweeps: the farm route at several pool and group sizes, and the
// resilient route with and without injected kills, all print the pinned
// CSV, with the invariant suite attached to every point.
func TestSweepFarmMatchesScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("pinned cold sweeps in -short mode")
	}
	checkPinnedRoutes(t, pinnedColdCSV, append(farmRoutes(),
		[]string{"-resilient"}, []string{"-resilient", "-kill-every", "7"}))
}

// TestSweepFarmWarmstartMatchesScalar pins the warm-started farm route:
// one thin warm template over its own sampler forks into the pinned
// trajectories at every pool and group size.
func TestSweepFarmWarmstartMatchesScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("pinned warm-started farm sweeps in -short mode")
	}
	checkPinnedRoutes(t, pinnedWarmstartCSV, farmRoutes("-warmstart"))
}

// TestSweepTelemetryParity: the CPM points of a sweep export the chip and
// PIC series the observer discovers from the session, like every other
// route.
func TestSweepTelemetryParity(t *testing.T) {
	o := testOptions(1)
	o.Fracs = []float64{0.8}
	o.Metrics = metrics.NewRegistry()
	if err := sweep(o, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, f := range o.Metrics.Gather() {
		have[f.Name] = true
	}
	for _, name := range []string{"cpm_island_level_residency_intervals_total", "cpm_cache_hits_total", "cpm_pic_integrator"} {
		if !have[name] {
			t.Errorf("sweep telemetry lacks %s", name)
		}
	}
}
