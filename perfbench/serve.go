package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/serve"
	"github.com/cpm-sim/cpm/internal/stats"
)

// serve-mix is a closed loop of one client against one in-process cpmserve
// (serve.NewServer with nproc workers, driven through Handler). One client
// keeps each request's process CPU time its own: with two in flight, the
// CPU the process spends could not be told apart by request. The client
// runs sessions on fresh seeds, so every request's path is fixed by the
// workload seed:
//
//   - a cold request: a fresh seed, so the run calibrates;
//   - two calibration-cached requests on the same seed: a sibling scenario
//     sharing the calibration, or budget_frac overrides;
//   - cache hits repeating this and the previous session's requests,
//     alternating JSON and NDJSON;
//   - every fourth session sends one cached-calibration request twice at
//     once, so the second coalesces onto the first.
//
// The scenario of each session's cold request cycles through the canonical
// set in a seeded order, so every run covers the same mix of scenarios.

// Set-up is timed on serveSetupBatches batches of serveSetupBatch servers
// built back to back on a collected heap: one server takes microseconds,
// near the resolution of the CPU clock, and a collection falling into a
// batch would outweigh it. The median batch's time per server is reported.
const (
	serveSetupBatches = 41
	serveSetupBatch   = 50
)

// serveReq is one request a client sends.
type serveReq struct {
	req  serve.Request
	cold bool // first request of its calibration identity
}

// siblings returns the canonical scenarios that share sc's calibration
// identity at any seed.
func siblings(sc check.Scenario) []string {
	var out []string
	for _, o := range check.Canonical() {
		if o.Name != sc.Name && calIdentity(o, 1) == calIdentity(sc, 1) {
			out = append(out, o.Name)
		}
	}
	return out
}

// serveClient is the closed-loop client and what it measured.
type serveClient struct {
	base  uint64
	rng   *stats.Rand
	order []int
	h     http.Handler
	tr    *serveTracer // nil: untraced run

	bodies     map[string][]byte
	prev       []serveReq
	cold, warm byKind    // miss CPU times by scenario, seconds
	hit        []float64 // hit latencies, seconds
	runs       []float64 // traced run times, seconds
	intervals  float64
	problems   [][]string // one entry per request; nil when it passed
	modelRuns  []serveReport
	// hitBy splits the hit latencies by untraced [0] and traced [1]
	// session: the same operation with and without tracing.
	hitBy      [2][]float64
	tracedWall time.Duration
}

// serveReport is the part of a run report the model metrics read.
type serveReport struct {
	MeanBIPS       float64 `json:"mean_bips"`
	MeanPowerW     float64 `json:"mean_power_w"`
	WorstEpochOver float64 `json:"worst_epoch_over"`
}

// serveTracer correlates a request's submission with the worker's RunHook,
// splitting a run into queue wait and run time.
type serveTracer struct {
	mu        sync.Mutex
	submitted map[string]time.Time // cache key -> ServeHTTP entry
	started   map[string]time.Time // cache key -> RunHook
	queueWait []float64
}

func (t *serveTracer) hook(req serve.Request) {
	now := time.Now()
	key := req.CacheKey()
	t.mu.Lock()
	defer t.mu.Unlock()
	if sub, ok := t.submitted[key]; ok {
		t.queueWait = append(t.queueWait, now.Sub(sub).Seconds())
		t.started[key] = now
	}
}

// response is one completed request.
type response struct {
	code    int
	outcome string // X-Cpmserve-Cache: hit, miss or coalesced
	body    []byte
	lat     time.Duration
	// cpu is the process CPU time spent while the request was in flight.
	cpu time.Duration
	// run is the time from the worker's RunHook to the response, on a
	// traced miss (0 otherwise).
	run time.Duration
}

// send issues one request through the handler. It touches no client state,
// so two can run at once.
func (c *serveClient) send(r serveReq, traced bool) (response, error) {
	doc, err := json.Marshal(r.req)
	if err != nil {
		return response{}, err
	}
	resolved, _, err := r.req.Resolve()
	if err != nil {
		return response{}, err
	}
	key := resolved.CacheKey()
	hr := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(doc))
	rec := httptest.NewRecorder()
	c0 := cpuNow()
	t0 := time.Now()
	if traced {
		c.tr.mu.Lock()
		if _, ok := c.tr.submitted[key]; !ok {
			c.tr.submitted[key] = t0
		}
		c.tr.mu.Unlock()
	}
	c.h.ServeHTTP(rec, hr)
	end := time.Now()
	resp := response{code: rec.Code, outcome: rec.Header().Get(serve.HeaderCache), body: rec.Body.Bytes(), lat: end.Sub(t0), cpu: cpuNow() - c0}
	if traced && resp.outcome == "miss" {
		c.tr.mu.Lock()
		if st, ok := c.tr.started[key]; ok {
			resp.run = end.Sub(st)
		}
		c.tr.mu.Unlock()
	}
	return resp, nil
}

// record checks one response and files its measurements. A miss is cold
// when the request is the first of its calibration identity.
func (c *serveClient) record(r serveReq, resp response, err error, traced, modelRun bool) {
	fail := func(format string, args ...any) {
		c.problems = append(c.problems, []string{fmt.Sprintf("%s seed %d: ", r.req.Scenario, r.req.Seed) + fmt.Sprintf(format, args...)})
	}
	switch {
	case err != nil:
		fail("%v", err)
		return
	case resp.code != http.StatusOK:
		fail("HTTP %d: %s", resp.code, bytes.TrimSpace(resp.body))
		return
	}
	resolved, _, _ := r.req.Resolve()
	key := fmt.Sprintf("%s/stream=%v", resolved.CacheKey(), r.req.Stream)
	if ref, ok := c.bodies[key]; ok && !bytes.Equal(ref, resp.body) {
		fail("body differs from an earlier response for %s", key)
		return
	} else if !ok {
		c.bodies[key] = resp.body
	}
	switch resp.outcome {
	case "hit":
		c.hit = append(c.hit, resp.lat.Seconds())
		i := 0
		if traced {
			i = 1
		}
		c.hitBy[i] = append(c.hitBy[i], resp.lat.Seconds())
	case "miss":
		c.intervals += float64((resolved.WarmEpochs + resolved.MeasureEpochs) * epochIntervals)
		if r.cold {
			c.cold.add(r.req.Scenario, resp.cpu.Seconds())
			c.intervals += calibrationIntervals
		} else {
			c.warm.add(r.req.Scenario, resp.cpu.Seconds())
		}
		if resp.run > 0 {
			c.runs = append(c.runs, resp.run.Seconds())
		}
		if modelRun && !r.req.Stream {
			var rep serveReport
			if err := json.Unmarshal(resp.body, &rep); err != nil {
				fail("decoding report: %v", err)
				return
			}
			c.modelRuns = append(c.modelRuns, rep)
		}
	}
	c.problems = append(c.problems, nil)
}

// session runs session s's requests in order.
func (c *serveClient) session(s int, traced bool) {
	scs := check.Canonical()
	sc := scs[c.order[s%len(scs)]]
	seed := opSeed(c.base, s)
	// budget draws a budget fraction in [0.5, 0.95] that differs from every
	// fraction already requested on this seed, so the request is a new run.
	used := []float64{sc.BudgetFrac}
	budget := func() float64 {
		for {
			f := 0.5 + float64(c.rng.Intn(46))/100
			if !slices.ContainsFunc(used, func(u float64) bool { return math.Abs(u-f) < 1e-6 }) {
				used = append(used, f)
				return f
			}
		}
	}
	cold := serveReq{req: serve.Request{Scenario: sc.Name, Seed: seed}, cold: true}
	a := serveReq{req: serve.Request{Scenario: sc.Name, Seed: seed, BudgetFrac: budget(), Stream: true}}
	if sib := siblings(sc); len(sib) > 0 {
		a.req = serve.Request{Scenario: sib[c.rng.Intn(len(sib))], Seed: seed, Stream: true}
	}
	b := serveReq{req: serve.Request{Scenario: sc.Name, Seed: seed, BudgetFrac: budget()}}
	one := func(r serveReq) {
		resp, err := c.send(r, traced)
		c.record(r, resp, err, traced, s == 0)
	}
	t0 := time.Now()
	one(cold)
	one(a)
	if s%4 == 3 {
		// Two identical requests at once: one runs, the other coalesces.
		var wg sync.WaitGroup
		var twin response
		var twinErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			twin, twinErr = c.send(b, traced)
		}()
		resp, err := c.send(b, traced)
		wg.Wait()
		c.record(b, resp, err, traced, s == 0)
		c.record(b, twin, twinErr, traced, false)
	} else {
		one(b)
	}
	hits := []serveReq{cold, a, b, withStream(cold, true)}
	for _, p := range c.prev {
		hits = append(hits, withStream(p, !p.req.Stream))
	}
	for _, h := range hits {
		h.cold = false
		one(h)
	}
	c.prev = []serveReq{cold, a}
	if traced {
		c.tracedWall += time.Since(t0)
	}
}

func withStream(r serveReq, stream bool) serveReq {
	r.req.Stream = stream
	return r
}

func runServeMix(c config) (*report, error) {
	rep := &report{}
	e := &endToEnd{}
	l := newLayers()

	// Set-up: the server a deployment constructs before its first request.
	batch := make([]*serve.Server, serveSetupBatch)
	for i := 0; i < serveSetupBatches; i++ {
		runtime.GC()
		c0 := cpuNow()
		for j := range batch {
			batch[j] = serve.NewServer(serve.Options{Workers: c.workers})
		}
		e.setup = append(e.setup, (cpuNow()-c0).Seconds()/serveSetupBatch)
		for _, srv := range batch {
			srv.Close()
		}
	}
	var tr *serveTracer
	opts := serve.Options{Workers: c.workers}
	if c.trace {
		tr = &serveTracer{submitted: map[string]time.Time{}, started: map[string]time.Time{}}
		opts.RunHook = tr.hook
	}
	srv := serve.NewServer(opts)
	h := srv.Handler()

	rng := stats.NewRand(stats.DeriveSeed(c.seed, 0, 0x5e4e))
	order := make([]int, len(check.Canonical()))
	rng.Perm(order)
	cl := &serveClient{base: c.seed, rng: rng, order: order, h: h, tr: tr,
		bodies: map[string][]byte{}, cold: byKind{}, warm: byKind{}}
	start, c0 := time.Now(), cpuNow()
	for s := 0; s == 0 || (c.trace && s == 1) || time.Since(start) < c.dur; s++ {
		// A traced run alternates traced and untraced sessions; the untraced
		// ones are the base of the tracing overhead.
		cl.session(s, c.trace && s%2 == 1)
	}
	cpu := cpuNow() - c0
	srv.Close()

	for _, p := range cl.problems {
		rep.op(p...)
	}
	l.hitLat = cl.hit
	l.serveRun = cl.runs
	l.untraced, l.traced = cl.hitBy[0], cl.hitBy[1]
	l.tracedWall = cl.tracedWall
	for _, m := range cl.modelRuns {
		l.model.addRun(m.MeanBIPS, m.MeanPowerW, m.WorstEpochOver)
	}
	if !c.trace {
		e.cold, e.warm = cl.cold.meanMedian(), cl.warm.meanMedian()
		e.opsPerS = ratio(float64(rep.attempted), cpu.Seconds())
		e.intervalsPerS = ratio(cl.intervals, cpu.Seconds())
		e.emit(rep)
		return rep, nil
	}
	st := srv.Stats()
	l.requests = uint64(rep.attempted)
	l.hits, l.misses, l.coalesced = st.Hits, st.Misses, st.Coalesced
	l.rejected = st.RejectedQueueFull + st.RejectedDraining
	l.runs, l.farmBatches = st.Runs, st.FarmBatches
	l.queueWait = tr.queueWait
	l.emit(rep)
	return rep, nil
}
