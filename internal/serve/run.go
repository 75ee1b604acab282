package serve

import (
	"fmt"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/farm"
	"github.com/cpm-sim/cpm/internal/metrics"
	"github.com/cpm-sim/cpm/internal/sim"
)

// runObservers is the observer set one served run carries: the golden
// digest recorder (the response's verification payload), the epoch recorder
// (the response's data payload), and the registry observer feeding /metrics
// under the scenario's canonical name — a bounded label set, since only
// canonical scenarios are admitted.
type runObservers struct {
	golden *check.Golden
	rec    *epochRecorder
	all    []engine.Observer
}

func (s *Server) observersFor(req Request) runObservers {
	golden := check.NewGolden(req.Scenario)
	rec := &epochRecorder{}
	return runObservers{
		golden: golden,
		rec:    rec,
		all: []engine.Observer{
			golden,
			rec.observer(),
			metrics.NewObserver(s.reg, metrics.ObserverOptions{Label: req.Scenario}),
		},
	}
}

// finalize turns one finished session into a rendered result, failing on
// invariant violations — a served run that breaks the paper's invariants is
// a 500, never a silently wrong 200.
func finalize(j *job, sum engine.Summary, suite *check.Suite, obs runObservers) (*result, error) {
	if err := suite.Err(); err != nil {
		return nil, fmt.Errorf("serve: %s seed %d violated invariants: %w", j.req.Scenario, j.req.Seed, err)
	}
	return buildResult(j.req, sum, obs.rec, obs.golden.Trace())
}

// executeFarm runs a batch of workload-compatible jobs — a lone job is a
// batch of one — as one farm group: one shared trace sampler, member chips
// stepped in lockstep. A farm member is golden-equivalent to a chip stepped
// alone (proven in internal/check), so which batch a job happens to ride
// never changes its response bytes. It returns each job's outcome for
// runBatch to publish.
func (s *Server) executeFarm(batch []*job) []jobResult {
	out := make([]jobResult, len(batch))
	obs := make([]runObservers, len(batch))
	suites := make([]*check.Suite, len(batch))
	specs := make([]farm.ChipSpec, len(batch))
	for i, j := range batch {
		i, j := i, j
		obs[i] = s.observersFor(j.req)
		specs[i] = farm.ChipSpec{
			Config: j.sc.BuildConfig(j.req.Seed),
			NewSession: func(cmp *sim.CMP) (*engine.Session, error) {
				sess, suite, err := j.sc.BuildOn(cmp, j.req.Seed, obs[i].all...)
				if err != nil {
					return nil, err
				}
				suites[i] = suite
				return sess, nil
			},
		}
	}
	f, err := farm.New(specs, farm.Options{})
	if err != nil {
		// Group construction failed as a whole; fail every member.
		for i := range out {
			out[i].err = fmt.Errorf("serve: building farm batch: %w", err)
		}
		return out
	}
	// One group, one sampler: the inner lockstep rounds are the
	// parallelism-free unit, so a single pool worker is exact and cheap.
	sums, err := f.Run(engine.Pool{Workers: 1}, nil)
	for i, j := range batch {
		if err != nil {
			out[i].err = fmt.Errorf("serve: running farm batch: %w", err)
			continue
		}
		out[i].res, out[i].err = finalize(j, sums[i], suites[i], obs[i])
	}
	return out
}

// jobResult is one job's outcome.
type jobResult struct {
	res *result
	err error
}
