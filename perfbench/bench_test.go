package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/cpm-sim/cpm/internal/check"
)

// The benchmark's self-test: a shortened run of every workload, untraced
// and traced, must emit exactly the metrics BENCHMARK.json names, record no
// failure and print a well-formed result line.

const root = ".."

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestShortRunsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			c := config{workload: w.Name, seed: 7, dur: time.Millisecond, trace: traced, root: root, workers: 2}
			run, ok := workloads[w.Name]
			if !ok {
				t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
			}
			rep, err := run(c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			var out, errs bytes.Buffer
			if err := rep.write(&out, &errs, c); err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   *bool                  `json:"correct"`
				Attempted *int                   `json:"attempted"`
				Failed    *int                   `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%v: result line: %v", w.Name, traced, err)
			}
			if res.Correct == nil || res.Attempted == nil || res.Failed == nil {
				t.Fatalf("%s trace=%v: result line lacks a key: %s", w.Name, traced, lines[len(lines)-1])
			}
			if !*res.Correct || *res.Failed != 0 || *res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, traced, *res.Correct, *res.Attempted, *res.Failed, errs.String())
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s in %s, BENCHMARK.json says %s", w.Name, traced, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.Name, traced, name)
				}
			}
		}
	}
}

// TestTimedSourceKeepsGoldens pins that the traced run's instrumentation —
// the timed record source, the step hooks and the last-position observer —
// leaves every seed-1 golden digest bit-identical.
func TestTimedSourceKeepsGoldens(t *testing.T) {
	goldens, err := loadGoldens(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range check.Canonical() {
		var m stepMarks
		sess, suite, g, _, err := buildTraced(sc, 1, &m)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		steps := 0
		for sess.RunIntervals(1) == 1 {
			steps++
			if m.chipStart.IsZero() || m.chipEnd.Before(m.chipStart) || m.observed.Before(m.chipEnd) {
				t.Fatalf("%s: interval %d left marks out of order: %+v", sc.Name, steps, m)
			}
		}
		sess.Run()
		if steps != int(scenarioIntervals(sc)) {
			t.Errorf("%s: traced %d intervals, want %v", sc.Name, steps, scenarioIntervals(sc))
		}
		if err := suite.Err(); err != nil {
			t.Errorf("%s: %v", sc.Name, err)
		}
		if err := g.Trace().Diff(goldens[sc.Name]); err != nil {
			t.Errorf("timed record source changed a golden: %v", err)
		}
	}
}

// TestCalIdentityMatchesCache pins calIdentity to the calibration cache of
// internal/check, whose key it mirrors: on a seed nothing else in the
// process uses, the five scenarios classed cold must each calibrate when
// built, far slower than any of the six classed warm, which must not.
func TestCalIdentityMatchesCache(t *testing.T) {
	const seed = 0x5eedca1
	seen := map[string]bool{}
	var cold, warm []time.Duration
	for _, sc := range check.Canonical() {
		id := calIdentity(sc, seed)
		t0 := time.Now()
		if _, _, err := sc.Build(seed); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		d := time.Since(t0)
		if seen[id] {
			warm = append(warm, d)
		} else {
			cold = append(cold, d)
		}
		seen[id] = true
	}
	if len(cold) != 5 || len(warm) != 6 {
		t.Fatalf("calIdentity classes %d scenarios cold and %d warm, want 5 and 6", len(cold), len(warm))
	}
	slowestWarm := slices.Max(warm)
	if fastestCold := slices.Min(cold); fastestCold < 10*slowestWarm {
		t.Errorf("fastest cold build %v is not far slower than slowest warm build %v: calIdentity no longer matches the calibration cache key", fastestCold, slowestWarm)
	}
}
