package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/variation"
	"github.com/cpm-sim/cpm/internal/workload"
)

// TestCalCacheBounded: one entry per seed, as a server calibrating every
// request's seed adds, never grows the cache past its cap — the oldest
// seed goes first.
func TestCalCacheBounded(t *testing.T) {
	c := newCalibrationCache()
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

	// Least recently used, not oldest inserted, goes first: a hit on the
	// oldest seed before the cap+1-th insert keeps it, and the next oldest
	// is evicted instead.
	c, calls = newCalibrationCache(), 0
	for seed := uint64(1); seed <= calCacheCap; seed++ {
		c.get(keyOf(seed), fit)
	}
	if cal, _ := c.get(keyOf(1), fit); cal.PlantGain != 1 || calls != calCacheCap {
		t.Fatalf("hit on seed 1 recalibrated: gain %g after %d calibrations", cal.PlantGain, calls)
	}
	c.get(keyOf(calCacheCap+1), fit)
	if _, ok := c.m[keyOf(1)]; !ok {
		t.Error("recently used seed 1 was evicted")
	}
	if _, ok := c.m[keyOf(2)]; ok {
		t.Error("least recently used seed 2 survived eviction")
	}
	if len(c.m) != calCacheCap || len(c.order) != calCacheCap {
		t.Errorf("%d entries, %d in order, cap %d", len(c.m), len(c.order), calCacheCap)
	}
}

// TestCalCacheSingleflight: concurrent misses on one key — a server's
// workers handed requests for one fresh seed — calibrate exactly once and
// all receive that result.
func TestCalCacheSingleflight(t *testing.T) {
	c := newCalibrationCache()
	key := calKey(sim.DefaultConfig(workload.Mix1()))
	var calls atomic.Int32
	release := make(chan struct{})
	fit := func() (Calibration, error) {
		n := calls.Add(1)
		<-release
		return Calibration{PlantGain: float64(n)}, nil
	}
	const workers = 16
	var started, wg sync.WaitGroup
	started.Add(workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			cal, err := c.get(key, fit)
			if err != nil || cal.PlantGain != 1 {
				t.Errorf("gain %g, err %v; want the first calibration's result", cal.PlantGain, err)
			}
		}()
	}
	started.Wait()
	// Give the workers time to block on the first one's flight. The check
	// below holds whatever the timing — a late worker hits the cache — so
	// the pause only decides how many workers contend.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("%d calibrations for one key, want 1", n)
	}
	if len(c.pending) != 0 {
		t.Errorf("%d calibrations left pending", len(c.pending))
	}
}

// TestCalCacheErrorsNotCached: a failed calibration reaches its caller but
// leaves no entry, so the next caller calibrates again; a panicking one
// leaves no pending flight behind.
func TestCalCacheErrorsNotCached(t *testing.T) {
	c := newCalibrationCache()
	key := calKey(sim.DefaultConfig(workload.Mix1()))
	boom := errors.New("boom")
	if _, err := c.get(key, func() (Calibration, error) { return Calibration{}, boom }); err != boom {
		t.Fatalf("err %v, want %v", err, boom)
	}
	func() {
		defer func() { recover() }()
		c.get(key, func() (Calibration, error) { panic("calibration blew up") })
	}()
	if len(c.m) != 0 || len(c.pending) != 0 {
		t.Fatalf("%d entries, %d pending after failures", len(c.m), len(c.pending))
	}
	cal, err := c.get(key, func() (Calibration, error) { return Calibration{PlantGain: 0.79}, nil })
	if err != nil || cal.PlantGain != 0.79 {
		t.Errorf("retry after failure: gain %g, err %v", cal.PlantGain, err)
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
	c := newCalibrationCache()
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
