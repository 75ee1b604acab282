package metrics

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/pic"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/workload"
)

// newManaged builds a managed chip in the oracle-power ablation, which
// needs no calibration — the controller behaviour differs from the paper
// configuration but every telemetry path is exercised identically.
func newManaged(t testing.TB, gpmPeriod int) (*sim.CMP, *core.CPM) {
	t.Helper()
	cfg := sim.DefaultConfig(workload.Mix1())
	cfg.Seed = 7
	cmp, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := core.New(cmp, core.Config{BudgetW: 30, GPMPeriod: gpmPeriod, UseOraclePower: true})
	if err != nil {
		t.Fatal(err)
	}
	return cmp, ctl
}

// TestObserverEndToEnd runs a full session with the observer attached and
// cross-checks the recorded telemetry against ground truth from the chip.
func TestObserverEndToEnd(t *testing.T) {
	const warm, meas, period = 1, 3, 10
	cmp, ctl := newManaged(t, period)
	reg := NewRegistry()
	obs := NewObserver(reg, ObserverOptions{Label: "test"})
	s, err := engine.NewSession(engine.NewCPMRunner(ctl), engine.SessionConfig{
		WarmEpochs: warm, MeasureEpochs: meas, Period: period, BudgetW: 30, Label: "test",
	}, obs)
	if err != nil {
		t.Fatal(err)
	}
	sum := s.Run()

	total := float64((warm + meas) * period)
	if got := reg.CounterVec("cpm_intervals_total", "Simulated PIC intervals, warmup included.", "run").With("test").Value(); got != total {
		t.Errorf("cpm_intervals_total = %v, want %v", got, total)
	}
	if got := reg.CounterVec("cpm_epochs_total", "Measured GPM epochs.", "run").With("test").Value(); got != meas {
		t.Errorf("cpm_epochs_total = %v, want %v", got, meas)
	}

	// Residency across levels must sum to the interval count, per island.
	fams := reg.Gather()
	byName := map[string]Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	res, ok := byName["cpm_island_level_residency_intervals_total"]
	if !ok {
		t.Fatal("no residency family recorded")
	}
	perIsland := map[string]float64{}
	for _, s := range res.Samples {
		perIsland[s.Labels[1].Value] += s.Value
	}
	for isl, n := range perIsland {
		if n != total {
			t.Errorf("island %s residency sums to %v, want %v", isl, n, total)
		}
	}

	// Cache counters must reconcile with the chip's cumulative stats.
	cs := cmp.CacheStats()
	wantHits := float64(cs.L1I.Hits + cs.L1D.Hits + cs.L2.Hits)
	var gotHits float64
	for _, s := range byName["cpm_cache_hits_total"].Samples {
		gotHits += s.Value
	}
	if gotHits != wantHits {
		t.Errorf("cpm_cache_hits_total sums to %v, chip reports %v", gotHits, wantHits)
	}

	// Peak temperature matches the summary.
	if got := reg.GaugeVec("cpm_max_temp_celsius", "Peak die temperature seen so far in the run.", "run").With("test").Value(); got < sum.MaxTempC {
		t.Errorf("cpm_max_temp_celsius = %v < summary max %v", got, sum.MaxTempC)
	}

	// PIC telemetry was recorded: the tracking-error histogram saw one
	// observation per island per post-warmup interval.
	hist := reg.HistogramVec("cpm_pic_tracking_error_frac",
		"Per-invocation PIC tracking error |target − estimate| in island-max-power fractions.",
		ExponentialBuckets(0.005, 2, 8), "run").With("test")
	wantObs := uint64(((warm+meas)*period - 1) * cmp.NumIslands())
	if got := hist.Count(); got != wantObs {
		t.Errorf("tracking-error observations = %d, want %d", got, wantObs)
	}

	// Both exports are well-formed.
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if _, err := ParsePrometheus(&prom); err != nil {
		t.Errorf("telemetry fails the exposition round trip: %v", err)
	}
	var jbuf bytes.Buffer
	if err := reg.WriteJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	var anyDoc any
	if err := json.Unmarshal(jbuf.Bytes(), &anyDoc); err != nil {
		t.Errorf("telemetry JSON rejected by encoding/json: %v", err)
	}
}

// TestObserverStepAllocs pins the tentpole's zero-allocation contract: one
// managed interval with the full metrics observer attached (chip cache
// polling, PIC hooks, residency counters) must not allocate in steady
// state. The GPM period is pushed beyond the metered window because the
// provisioning step itself allocates its observation slice by design.
func TestObserverStepAllocs(t *testing.T) {
	cmp, ctl := newManaged(t, 1<<20)
	reg := NewRegistry()
	obs := NewObserver(reg, ObserverOptions{Label: "alloc"})
	r := engine.NewCPMRunner(ctl)
	obs.RunStart(engine.RunInfo{Label: "alloc", Islands: cmp.NumIslands(), Cores: cmp.NumCores(), BudgetW: 30, Chip: cmp, PICs: ctl.PICs()})
	for k := 0; k < 5; k++ {
		obs.ObserveStep(r.Step())
	}
	if n := testing.AllocsPerRun(20, func() { obs.ObserveStep(r.Step()) }); n != 0 {
		t.Errorf("metered interval allocates %v times with metrics attached, want 0", n)
	}
}

// TestObserverWithoutChip covers the degraded mode of an observer driven
// by hand with a RunInfo that names no chip and no PICs: engine-level
// series only, island series sized from RunInfo at RunStart.
func TestObserverWithoutChip(t *testing.T) {
	cmp, ctl := newManaged(t, 10)
	reg := NewRegistry()
	obs := NewObserver(reg, ObserverOptions{Label: "bare"})
	r := engine.NewCPMRunner(ctl)
	obs.RunStart(engine.RunInfo{Label: "bare", Islands: cmp.NumIslands(), Cores: cmp.NumCores(), BudgetW: 30})
	for k := 0; k < 30; k++ {
		obs.ObserveStep(r.Step())
	}
	if got := reg.CounterVec("cpm_intervals_total", "Simulated PIC intervals, warmup included.", "run").With("bare").Value(); got != 30 {
		t.Errorf("cpm_intervals_total = %v, want 30", got)
	}
	for _, f := range reg.Gather() {
		switch f.Name {
		case "cpm_cache_hits_total", "cpm_island_level_residency_intervals_total", "cpm_pic_integrator":
			t.Errorf("chip- or PIC-dependent family %q present without a chip", f.Name)
		case "cpm_island_level":
			if len(f.Samples) != cmp.NumIslands() {
				t.Errorf("island series sized %d, want %d", len(f.Samples), cmp.NumIslands())
			}
		}
	}
}

// TestObserverAdaptiveGauges checks the adaptive-mode series: present and
// live for an adaptive controller, absent entirely for a fixed-gain one.
func TestObserverAdaptiveGauges(t *testing.T) {
	cfg := sim.DefaultConfig(workload.Mix1())
	cfg.Seed = 7
	cmp, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := core.New(cmp, core.Config{
		BudgetW: 30, GPMPeriod: 10, UseOraclePower: true,
		Adaptive: &pic.AdaptiveConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	obs := NewObserver(reg, ObserverOptions{Label: "ad"})
	s, err := engine.NewSession(engine.NewCPMRunner(ctl), engine.SessionConfig{
		WarmEpochs: 1, MeasureEpochs: 3, Period: 10, BudgetW: 30, Label: "ad",
	}, obs)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()

	byName := map[string]Family{}
	for _, f := range reg.Gather() {
		byName[f.Name] = f
	}
	for _, name := range []string{"cpm_pic_gain_scale", "cpm_pic_plant_gain_est"} {
		fam, ok := byName[name]
		if !ok {
			t.Fatalf("adaptive run exported no %s family", name)
		}
		if len(fam.Samples) != cmp.NumIslands() {
			t.Errorf("%s has %d samples, want one per island (%d)", name, len(fam.Samples), cmp.NumIslands())
		}
		for _, smp := range fam.Samples {
			if smp.Value <= 0 {
				t.Errorf("%s sample %v = %v, want positive", name, smp.Labels, smp.Value)
			}
		}
	}

	// A fixed-gain run must not register the adaptive families at all.
	_, ctl2 := newManaged(t, 10)
	reg2 := NewRegistry()
	obs2 := NewObserver(reg2, ObserverOptions{Label: "fx"})
	s2, err := engine.NewSession(engine.NewCPMRunner(ctl2), engine.SessionConfig{
		WarmEpochs: 1, MeasureEpochs: 2, Period: 10, BudgetW: 30, Label: "fx",
	}, obs2)
	if err != nil {
		t.Fatal(err)
	}
	s2.Run()
	for _, f := range reg2.Gather() {
		if f.Name == "cpm_pic_gain_scale" || f.Name == "cpm_pic_plant_gain_est" {
			t.Errorf("fixed-gain run exported %s", f.Name)
		}
	}
}
