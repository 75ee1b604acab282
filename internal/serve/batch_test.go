package serve

import (
	"sync"
	"testing"

	"github.com/cpm-sim/cpm/internal/check"
)

// TestBatchAdmissionGoldenEquivalence holds the single worker on a blocker
// run while every canonical scenario queues up, then releases it. The
// scenarios sharing the Mix1/seed-1 workload key must come back as one
// farm group (one shared trace sampler), the rest — thermal-policy,
// big.LITTLE and tech-scaled chips, each alone on its workload key — as
// groups of one; and every response must still reproduce its pinned golden
// digests exactly: the batched path is invisible in the bytes.
func TestBatchAdmissionGoldenEquivalence(t *testing.T) {
	// Derive the expected batching from the canonical set's own key
	// structure: exactly one key (the legacy Mix1 chip) holds a batchable
	// majority, every other key is a singleton and runs alone. Fail
	// loudly if that shape ever changes.
	byKey := map[string]int{}
	for _, sc := range check.Canonical() {
		byKey[sc.BuildConfig(goldenSeed).WorkloadKey()]++
	}
	wantBatched, batchableKeys := 0, 0
	for _, n := range byKey {
		if n > 1 {
			batchableKeys++
			wantBatched = n
		}
	}
	if batchableKeys != 1 {
		t.Fatalf("canonical scenarios have %d batchable workload keys, test assumes exactly 1", batchableKeys)
	}
	if wantBatched < 2 {
		t.Fatalf("largest workload key holds %d scenarios, test assumes a batchable majority", wantBatched)
	}

	gate := make(chan struct{})
	started := make(chan Request, 16)
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	blocker := Request{Scenario: "cpm-default", Seed: goldenSeed, MeasureEpochs: 5}
	// RunHook sees the *resolved* request (defaults filled), so the gate
	// must match against the resolved form.
	resolvedBlocker, _, err := blocker.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 16,
		BatchMax:   16,
		RunHook: func(r Request) {
			started <- r
			if r == resolvedBlocker {
				<-gate
			}
		},
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wantStatus(t, postJSON(t, ts, runDoc(blocker)), 200)
	}()
	waitFor(t, "blocker to start", func() bool { return len(started) > 0 })
	<-started

	// With the worker held, queue every canonical scenario.
	names := check.ScenarioNames()
	reports := make([]Report, len(names))
	for i, name := range names {
		i, name := i, name
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSON(t, ts, runDoc(Request{Scenario: name, Seed: goldenSeed}))
			reports[i] = decodeReport(t, wantStatus(t, resp, 200))
		}()
	}
	waitFor(t, "all scenarios queued", func() bool { return srv.Stats().QueueDepth == len(names) })
	release()
	wg.Wait()

	for i, name := range names {
		if err := traceOf(reports[i]).Diff(loadRef(t, name)); err != nil {
			t.Errorf("batched %s diverged from the pinned golden: %v", name, err)
		}
	}
	st := srv.Stats()
	if st.FarmBatches != 1 {
		t.Errorf("FarmBatches = %d, want exactly 1 (the Mix1 scenarios)", st.FarmBatches)
	}
	if st.BatchedJobs != uint64(wantBatched) {
		t.Errorf("BatchedJobs = %d, want %d", st.BatchedJobs, wantBatched)
	}
	if st.Runs != uint64(len(names))+1 {
		t.Errorf("Runs = %d, want %d (blocker + every scenario)", st.Runs, len(names)+1)
	}
}

// TestBatchDisabled: BatchMax 1 must run every job in a group of its own
// even when the queue is full of compatible work.
func TestBatchDisabled(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan Request, 16)
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	blocker := Request{Scenario: "cpm-default", Seed: goldenSeed, MeasureEpochs: 2}
	resolvedBlocker, _, err := blocker.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 16,
		BatchMax:   1,
		RunHook: func(r Request) {
			started <- r
			if r == resolvedBlocker {
				<-gate
			}
		},
	})

	var wg sync.WaitGroup
	post := func(doc string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wantStatus(t, postJSON(t, ts, doc), 200)
		}()
	}
	post(runDoc(blocker))
	waitFor(t, "blocker to start", func() bool { return len(started) > 0 })
	<-started

	post(runDoc(shortRun("cpm-default", goldenSeed)))
	post(runDoc(shortRun("maxbips", goldenSeed)))
	waitFor(t, "both runs queued", func() bool { return srv.Stats().QueueDepth == 2 })
	release()
	wg.Wait()

	st := srv.Stats()
	if st.FarmBatches != 0 || st.BatchedJobs != 0 {
		t.Errorf("BatchMax 1 still batched: %+v", st)
	}
	if st.Runs != 3 {
		t.Errorf("Runs = %d, want 3", st.Runs)
	}
}
