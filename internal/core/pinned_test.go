package core_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/sim"
)

var update = flag.Bool("update", false, "regenerate testdata/calibration.json")

const pinnedPath = "testdata/calibration.json"

// pinnedCase is one calibration input the pinned file covers.
type pinnedCase struct {
	name          string
	cfg           func(t *testing.T) sim.Config
	warm, measure int
}

// pinnedCalibration is one case's stored output: every float64 of the
// Calibration by field path, as exact IEEE-754 bits in hex.
type pinnedCalibration struct {
	Name    string            `json:"name"`
	Warm    int               `json:"warm"`
	Measure int               `json:"measure"`
	Bits    map[string]string `json:"bits"`
}

func scenarioConfig(name string, parallel bool) func(t *testing.T) sim.Config {
	return func(t *testing.T) sim.Config {
		sc, err := check.ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sc.BuildConfig(1)
		cfg.Parallel = parallel
		return cfg
	}
}

// replayConfig is cpm-default's chip fed a 40-interval recording of its own
// live run, which the calibration passes wrap around.
func replayConfig(t *testing.T) sim.Config {
	cfg := scenarioConfig("cpm-default", false)(t)
	rec := cfg
	rec.RecordTraces = true
	cmp, err := sim.New(rec)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 40; k++ {
		cmp.Step()
	}
	set, err := cmp.Traces()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Replay = &set
	return cfg
}

// pinnedCases: the five calibration identities a seed-1 canonical pass
// misses the cache on, Mix-1 with island-parallel sampling as the sweeps
// run it, and short shapes where the white-noise pass (max(measure/8, 2)
// windows of 8 intervals) is as long as (20,80), longer than (5,10) and
// shorter than (3,37) the unmanaged pass — plus a replayed trace.
func pinnedCases() []pinnedCase {
	cases := []pinnedCase{}
	for _, name := range []string{"cpm-default", "thermal-policy", "variation-aware", "hetero-biglittle", "tech-16nm"} {
		cases = append(cases, pinnedCase{name: name, cfg: scenarioConfig(name, false), warm: 60, measure: 240})
	}
	cases = append(cases, pinnedCase{name: "mix1-parallel", cfg: scenarioConfig("cpm-default", true), warm: 60, measure: 240})
	for _, s := range [][2]int{{20, 80}, {5, 10}, {3, 37}} {
		cases = append(cases, pinnedCase{
			name: fmt.Sprintf("mix1-%d-%d", s[0], s[1]), cfg: scenarioConfig("cpm-default", false), warm: s[0], measure: s[1],
		})
	}
	cases = append(cases,
		pinnedCase{name: "hetero-biglittle-5-10", cfg: scenarioConfig("hetero-biglittle", false), warm: 5, measure: 10},
		pinnedCase{name: "mix1-replay-3-37", cfg: replayConfig, warm: 3, measure: 37},
	)
	return cases
}

// calibrationBits flattens every float64 reachable from v into out, keyed
// by field path. Any other kind fails the test, so a new Calibration field
// cannot slip past the pin.
func calibrationBits(t *testing.T, v reflect.Value, path string, out map[string]string) {
	switch v.Kind() {
	case reflect.Float64:
		out[path] = fmt.Sprintf("%016x", math.Float64bits(v.Float()))
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			calibrationBits(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), out)
		}
	case reflect.Interface:
		calibrationBits(t, v.Elem(), fmt.Sprintf("%s.(%s)", path, v.Elem().Type()), out)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			calibrationBits(t, v.Field(i), name, out)
		}
	default:
		t.Fatalf("calibration field %s has unpinned kind %s", path, v.Kind())
	}
}

// TestCalibrationPinned: Calibrate's output is bit-identical to the stored
// reference on every pinned case. The reference is the behavioural
// contract of the system identification; regenerate it with -update only
// for an intentional change to what it computes.
func TestCalibrationPinned(t *testing.T) {
	var got []pinnedCalibration
	for _, c := range pinnedCases() {
		cal, err := core.Calibrate(c.cfg(t), c.warm, c.measure)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		bits := map[string]string{}
		calibrationBits(t, reflect.ValueOf(cal), "", bits)
		got = append(got, pinnedCalibration{Name: c.name, Warm: c.warm, Measure: c.measure, Bits: bits})
	}
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(pinnedPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinnedPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", pinnedPath)
		return
	}
	buf, err := os.ReadFile(pinnedPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []pinnedCalibration
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s pins %d cases, the test runs %d", pinnedPath, len(want), len(got))
	}
	for i, g := range got {
		w := want[i]
		if g.Name != w.Name || g.Warm != w.Warm || g.Measure != w.Measure {
			t.Fatalf("case %d is %s (%d,%d), pinned %s (%d,%d)", i, g.Name, g.Warm, g.Measure, w.Name, w.Warm, w.Measure)
		}
		var diffs []string
		for path, wb := range w.Bits {
			if gb, ok := g.Bits[path]; !ok {
				diffs = append(diffs, path+": missing")
			} else if gb != wb {
				diffs = append(diffs, fmt.Sprintf("%s: %s, pinned %s", path, gb, wb))
			}
		}
		for path := range g.Bits {
			if _, ok := w.Bits[path]; !ok {
				diffs = append(diffs, path+": not pinned")
			}
		}
		sort.Strings(diffs)
		for _, d := range diffs {
			t.Errorf("%s: %s", g.Name, d)
		}
	}
}
