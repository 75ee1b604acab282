package core

import (
	"sync"
	"testing"

	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/variation"
	"github.com/cpm-sim/cpm/internal/workload"
)

// TestCalCacheBounded: one entry per seed, as a server calibrating every
// request's seed adds, never grows the cache past its cap — the oldest
// seed goes first.
func TestCalCacheBounded(t *testing.T) {
	c := &calibrationCache{m: map[string]Calibration{}}
	cfg := sim.DefaultConfig(workload.Mix1())
	calls := 0
	fit := func() (Calibration, error) { calls++; return Calibration{PlantGain: float64(calls)}, nil }
	keyOf := func(seed uint64) string { cfg.Seed = seed; return calKey(cfg) }
	for seed := uint64(1); seed <= calCacheCap+1; seed++ {
		if _, err := c.get(keyOf(seed), fit); err != nil {
			t.Fatal(err)
		}
		if len(c.m) > calCacheCap || len(c.order) > calCacheCap {
			t.Fatalf("after seed %d: %d entries, %d in order, cap %d", seed, len(c.m), len(c.order), calCacheCap)
		}
	}
	if _, ok := c.m[keyOf(1)]; ok {
		t.Error("oldest seed survived eviction")
	}
	if cal, _ := c.get(keyOf(calCacheCap+1), fit); cal.PlantGain != calCacheCap+1 || calls != calCacheCap+1 {
		t.Errorf("newest seed missed: gain %g after %d calibrations", cal.PlantGain, calls)
	}
}

// TestCalKeyDistinguishesVariationContents: two variation maps of equal
// length are different chips and must not share a calibration.
func TestCalKeyDistinguishesVariationContents(t *testing.T) {
	a := sim.DefaultConfig(workload.Mix1())
	b := a
	a.Variation = variation.PaperIslands(2)
	b.Variation = variation.Random(3, 8, 0.2)
	if a.Variation.Len() != b.Variation.Len() {
		t.Fatalf("fixture maps differ in length: %d vs %d", a.Variation.Len(), b.Variation.Len())
	}
	if calKey(a) == calKey(b) {
		t.Errorf("equal keys for different variation maps: %s", calKey(a))
	}
	if calKey(a) == calKey(sim.DefaultConfig(workload.Mix1())) {
		t.Error("variation map does not reach the key")
	}
}

// TestCalCacheConcurrent: workers calibrating overlapping seeds at once
// (a server's pool, parallel experiments) see one value per key and never
// push the cache past its cap.
func TestCalCacheConcurrent(t *testing.T) {
	c := &calibrationCache{m: map[string]Calibration{}}
	cfg := sim.DefaultConfig(workload.Mix1())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seed := uint64(1); seed <= 2*calCacheCap; seed++ {
				cfg := cfg
				cfg.Seed = seed + uint64(w%2)
				fit := func() (Calibration, error) { return Calibration{PlantGain: float64(cfg.Seed)}, nil }
				cal, err := c.get(calKey(cfg), fit)
				if err != nil || cal.PlantGain != float64(cfg.Seed) {
					t.Errorf("seed %d: gain %g, err %v", cfg.Seed, cal.PlantGain, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if len(c.m) > calCacheCap || len(c.order) != len(c.m) {
		t.Errorf("%d entries, %d in order, cap %d", len(c.m), len(c.order), calCacheCap)
	}
}
