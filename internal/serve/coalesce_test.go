package serve

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCoalescingRunsOnce proves the singleflight contract under -race: N
// concurrent identical requests must run the simulation exactly once, and
// every response — the leader's and all coalesced followers' — must be
// byte-identical.
func TestCoalescingRunsOnce(t *testing.T) {
	const n = 12
	var runs atomic.Int64
	gate := make(chan struct{})
	srv, ts := newTestServer(t, Options{
		Workers:    2,
		QueueDepth: 16,
		RunHook: func(Request) {
			runs.Add(1)
			<-gate // hold the run until every request has been admitted
		},
	})

	doc := runDoc(shortRun("cpm-default", goldenSeed))
	type reply struct {
		body    []byte
		outcome string
	}
	replies := make([]reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSON(t, ts, doc)
			replies[i] = reply{wantStatus(t, resp, 200), resp.Header.Get(HeaderCache)}
		}()
	}

	// All n requests must be admitted — one leader, n-1 coalesced — before
	// the gated run is released; this is the window a second leader would
	// slip through if admission raced.
	waitFor(t, "all requests admitted", func() bool {
		st := srv.Stats()
		return st.Misses == 1 && st.Coalesced == n-1
	})
	close(gate)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("%d identical concurrent requests ran the simulation %d times, want exactly 1", n, got)
	}
	var leaders, followers int
	for i, r := range replies {
		if !bytes.Equal(r.body, replies[0].body) {
			t.Errorf("response %d differs from response 0 (%d vs %d bytes)", i, len(r.body), len(replies[0].body))
		}
		switch r.outcome {
		case outcomeMiss:
			leaders++
		case outcomeCoalesced:
			followers++
		default:
			t.Errorf("response %d outcome %q", i, r.outcome)
		}
	}
	if leaders != 1 || followers != n-1 {
		t.Errorf("outcomes: %d leaders, %d followers; want 1 and %d", leaders, followers, n-1)
	}
}

// TestDistinctSeedsNeverShare proves the negative: requests differing only
// in seed have distinct cache keys, run separately, and produce different
// digests — a cache-key collision here would silently serve one seed's
// physics as another's.
func TestDistinctSeedsNeverShare(t *testing.T) {
	var runs atomic.Int64
	srv, ts := newTestServer(t, Options{
		Workers:    2,
		QueueDepth: 16,
		RunHook:    func(Request) { runs.Add(1) },
	})

	var (
		wg   sync.WaitGroup
		keys [2]string
		reps [2]Report
	)
	for i, seed := range []uint64{1, 2} {
		i, seed := i, seed
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSON(t, ts, runDoc(shortRun("cpm-default", seed)))
			body := wantStatus(t, resp, 200)
			keys[i] = resp.Header.Get(HeaderCacheKey)
			reps[i] = decodeReport(t, body)
		}()
	}
	wg.Wait()

	if got := runs.Load(); got != 2 {
		t.Fatalf("two distinct-seed requests ran %d simulations, want 2", got)
	}
	if keys[0] == keys[1] {
		t.Errorf("seeds 1 and 2 share cache key %s", keys[0])
	}
	if reps[0].FinalDigest == reps[1].FinalDigest {
		t.Errorf("seeds 1 and 2 produced the same final digest %s", reps[0].FinalDigest)
	}
	if st := srv.Stats(); st.Hits != 0 {
		t.Errorf("distinct requests recorded %d cache hits", st.Hits)
	}
}

// TestCacheKeyIdentity pins what is — and is not — part of a request's
// content address.
func TestCacheKeyIdentity(t *testing.T) {
	resolve := func(t *testing.T, r Request) Request {
		t.Helper()
		res, _, err := r.Resolve()
		if err != nil {
			t.Fatalf("resolving %+v: %v", r, err)
		}
		return res
	}
	base := Request{Scenario: "cpm-default"}
	cases := []struct {
		name string
		a, b Request
		same bool
	}{
		{"stream is not identity", base, Request{Scenario: "cpm-default", Stream: true}, true},
		{"explicit defaults equal implicit", base,
			Request{Scenario: "cpm-default", Seed: 1, BudgetFrac: 0.8, WarmEpochs: 2, MeasureEpochs: 4}, true},
		{"seed differs", base, Request{Scenario: "cpm-default", Seed: 2}, false},
		{"budget differs", base, Request{Scenario: "cpm-default", BudgetFrac: 0.6}, false},
		{"budget differs past nine digits", Request{Scenario: "cpm-default", BudgetFrac: 0.8},
			Request{Scenario: "cpm-default", BudgetFrac: 0.8000000001}, false},
		{"warm window differs", base, Request{Scenario: "cpm-default", WarmEpochs: 3}, false},
		{"measure window differs", base, Request{Scenario: "cpm-default", MeasureEpochs: 5}, false},
		{"scenario differs", base, Request{Scenario: "budget-60"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ka, kb := resolve(t, tc.a).CacheKey(), resolve(t, tc.b).CacheKey()
			if (ka == kb) != tc.same {
				t.Errorf("keys %s and %s; want same=%v", ka, kb, tc.same)
			}
		})
	}
	// budget-60 vs cpm-default at the same explicit budget: the scenario
	// name itself must stay in the key.
	a := resolve(t, Request{Scenario: "cpm-default", BudgetFrac: 0.6})
	b := resolve(t, Request{Scenario: "budget-60"})
	if a.CacheKey() == b.CacheKey() {
		t.Errorf("different scenarios with equal parameters share key %s", a.CacheKey())
	}
}
