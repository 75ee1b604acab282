package core

import (
	"fmt"
	"sync"

	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/snapshot"
)

// calCacheCap bounds the process calibration cache. A long-lived process
// calibrating a fresh seed per request would otherwise grow it forever; the
// oldest entry is evicted first.
const calCacheCap = 64

// calibrationCache memoizes calibrations by the identity calKey derives.
type calibrationCache struct {
	mu    sync.Mutex
	m     map[string]Calibration
	order []string // insertion order, oldest first
}

var processCal = &calibrationCache{m: map[string]Calibration{}}

// CalibrateCached is Calibrate(cfg, 60, 240) memoized for the process.
// Calibration dominates a short run's cost and is a pure function of its
// inputs, so runs sharing them share one fit. The key covers the inputs
// callers vary — mix, seed, interval, island parallelism, technology node,
// island classes and the variation map's contents; every other field of cfg
// must be at its DefaultConfig value.
func CalibrateCached(cfg sim.Config) (Calibration, error) {
	return processCal.get(calKey(cfg), func() (Calibration, error) { return Calibrate(cfg, 60, 240) })
}

// calKey names the calibration inputs of cfg.
func calKey(cfg sim.Config) string {
	e := snapshot.NewEncoder()
	cfg.Variation.Snapshot(e)
	return fmt.Sprintf("%s/%d/seed=%d/dt=%g/par=%t/tech=%s/classes=%v/var=%x",
		cfg.Mix.Name, cfg.Mix.Cores(), cfg.Seed, cfg.IntervalSec, cfg.Parallel,
		cfg.Tech, cfg.IslandClasses, e.Bytes())
}

// get returns the calibration cached under key, running calibrate on a
// miss. Concurrent misses on one key each calibrate; the results are equal.
func (c *calibrationCache) get(key string, calibrate func() (Calibration, error)) (Calibration, error) {
	c.mu.Lock()
	cal, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		return cal, nil
	}
	cal, err := calibrate()
	if err != nil {
		return Calibration{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; !ok {
		if len(c.order) == calCacheCap {
			delete(c.m, c.order[0])
			c.order = c.order[1:]
		}
		c.order = append(c.order, key)
	}
	c.m[key] = cal
	return cal, nil
}
