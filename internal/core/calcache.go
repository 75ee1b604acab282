package core

import (
	"errors"
	"slices"
	"sync"

	"github.com/cpm-sim/cpm/internal/sim"
)

// calCacheCap bounds the process calibration cache. A long-lived process
// calibrating a fresh seed per request would otherwise grow it forever; the
// least recently used entry is evicted first.
const calCacheCap = 64

// calibrationCache memoizes calibrations by run identity (sim.Config.Key).
// Concurrent misses on one key calibrate once: the first caller runs the
// fit and the rest wait for its result.
type calibrationCache struct {
	mu      sync.Mutex
	m       map[string]Calibration
	order   []string // use order, least recent first
	pending map[string]*calFlight
}

// calFlight is one calibration in progress; done closes when cal and err
// are final.
type calFlight struct {
	done chan struct{}
	cal  Calibration
	err  error
}

func newCalibrationCache() *calibrationCache {
	return &calibrationCache{m: map[string]Calibration{}, pending: map[string]*calFlight{}}
}

var processCal = newCalibrationCache()

// CalibrateCached is Calibrate(cfg, 60, 240) memoized for the process.
// Calibration dominates a short run's cost and is a pure function of the
// chip configuration, so runs with equal cfg.Key() share one fit: the key
// covers every input that shapes the chip and leaves out only the
// run-invariant Parallel and RecordTraces.
func CalibrateCached(cfg sim.Config) (Calibration, error) {
	return processCal.get(cfg.Key(), func() (Calibration, error) { return Calibrate(cfg, 60, 240) })
}

// errCalibrationPanicked is what callers waiting on a calibration that
// panicked receive; the panic itself goes to the caller that ran it.
var errCalibrationPanicked = errors.New("core: calibration panicked")

// get returns the calibration cached under key, running calibrate on a
// miss. A hit makes key the most recently used. Callers missing on a key
// another caller is already calibrating wait for that result, error
// included; errors are never cached, so the next miss calibrates again.
func (c *calibrationCache) get(key string, calibrate func() (Calibration, error)) (Calibration, error) {
	c.mu.Lock()
	if cal, ok := c.m[key]; ok {
		c.touch(key)
		c.mu.Unlock()
		return cal, nil
	}
	if f, ok := c.pending[key]; ok {
		c.mu.Unlock()
		<-f.done
		return f.cal, f.err
	}
	f := &calFlight{done: make(chan struct{}), err: errCalibrationPanicked}
	c.pending[key] = f
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		delete(c.pending, key)
		if f.err == nil {
			c.insert(key, f.cal)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.cal, f.err = calibrate()
	return f.cal, f.err
}

// touch moves key to the most recent end of the use order. c.mu held.
func (c *calibrationCache) touch(key string) {
	i := slices.Index(c.order, key)
	c.order = append(slices.Delete(c.order, i, i+1), key)
}

// insert adds a key no entry holds, evicting the least recently used entry
// at the cap. c.mu held.
func (c *calibrationCache) insert(key string, cal Calibration) {
	if len(c.order) == calCacheCap {
		delete(c.m, c.order[0])
		c.order = slices.Delete(c.order, 0, 1)
	}
	c.order = append(c.order, key)
	c.m[key] = cal
}
