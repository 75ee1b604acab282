package sim

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"

	"github.com/cpm-sim/cpm/internal/noc"
	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/snapshot"
	"github.com/cpm-sim/cpm/internal/uarch"
	"github.com/cpm-sim/cpm/internal/variation"
	"github.com/cpm-sim/cpm/internal/workload"
)

// identityPerturbations changes exactly one Config field of a tinyMix
// DefaultConfig to another valid value.
var identityPerturbations = map[string]func(*Config){
	"Seed": func(c *Config) { c.Seed = 2 },
	// Same name and core count, islands swapped: the placement, not just
	// the name, is identity.
	"Mix":              func(c *Config) { c.Mix.Islands = [][]string{{"fsim"}, {"bschls"}} },
	"Core":             func(c *Config) { c.Core.DataSampleRefs /= 2 },
	"SharedL2":         func(c *Config) { c.SharedL2 = true },
	"L2PrefetchDegree": func(c *Config) { c.L2PrefetchDegree = 2 },
	"Tech":             func(c *Config) { c.Tech = power.TechConfig{Node: power.Node16, Variant: power.ITRS} },
	"IslandClasses":    func(c *Config) { c.IslandClasses = biglittleClasses() },
	"Power": func(c *Config) {
		c.Power = power.DefaultModel()
		c.Power.Leakage.NomW *= 1.5
	},
	"Mem":          func(c *Config) { c.Mem.BaseLatencyNs *= 2 },
	"Thermal":      func(c *Config) { c.Thermal.RthCPerW *= 2 },
	"Variation":    func(c *Config) { c.Variation = variation.Random(3, 2, 0.2) },
	"IntervalSec":  func(c *Config) { c.IntervalSec *= 2 },
	"InitialLevel": func(c *Config) { c.InitialLevel = 0 },
	"NoC": func(c *Config) {
		n := noc.DefaultConfig(1, 2)
		c.NoC = &n
	},
	"Replay": func(c *Config) {
		c.Replay = &uarch.TraceSet{
			Benchmarks: map[int]string{0: "bschls", 1: "fsim"},
			Records:    map[int][]uarch.TraceRecord{0: {{BaseCPI: 1}}, 1: {{BaseCPI: 2}}},
		}
	},
	"Parallel":     func(c *Config) { c.Parallel = true },
	"RecordTraces": func(c *Config) { c.RecordTraces = true },
}

// TestIdentityCompleteness: every Config field is classified, and one
// perturbation of each field moves Key exactly when the field is not
// run-invariant and WorkloadKey exactly when it is in the workload half.
// A new field fails here until someone decides which half it belongs to.
func TestIdentityCompleteness(t *testing.T) {
	base := DefaultConfig(tinyMix())
	fields := map[string]bool{}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(base)) {
		fields[f.Name] = true
		h := identity[f.Name]
		if h == unclassified {
			t.Errorf("Config.%s is not classified in sim.identity", f.Name)
			continue
		}
		perturb, ok := identityPerturbations[f.Name]
		if !ok {
			t.Errorf("Config.%s has no identity perturbation", f.Name)
			continue
		}
		cfg := base
		perturb(&cfg)
		if moved := cfg.Key() != base.Key(); moved != (h != runInvariant) {
			t.Errorf("Config.%s (class %d): Key moved=%v", f.Name, h, moved)
		}
		if moved := cfg.WorkloadKey() != base.WorkloadKey(); moved != (h == workloadHalf) {
			t.Errorf("Config.%s (class %d): WorkloadKey moved=%v", f.Name, h, moved)
		}
	}
	for name := range identity {
		if !fields[name] {
			t.Errorf("sim.identity classifies %s, which is not a Config field", name)
		}
	}
}

// TestIdentityComputeHalfKeepsRecords: the license for leaving a field out
// of WorkloadKey is that it never moves the record stream. Every
// compute-half and run-invariant perturbation leaves NewSampler's records
// bit-identical over several intervals, on a legacy chip and on a
// tech-scaled big.LITTLE one (whose sampler reads the island tables); a
// replayed trace has no sampling half at all, so no sampler is ever shared
// on its behalf.
func TestIdentityComputeHalfKeepsRecords(t *testing.T) {
	const intervals = 6
	records := func(cfg Config) []byte {
		t.Helper()
		s, err := NewSampler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := snapshot.NewEncoder()
		for k := 0; k < intervals; k++ {
			e.Canonical(reflect.ValueOf(s.Records(k)))
		}
		return e.Bytes()
	}
	hetero := DefaultConfig(tinyMix())
	identityPerturbations["Tech"](&hetero)
	identityPerturbations["IslandClasses"](&hetero)
	for _, base := range []Config{DefaultConfig(tinyMix()), hetero} {
		want := records(base)
		for name, perturb := range identityPerturbations {
			if identity[name] == workloadHalf {
				continue
			}
			cfg := base
			perturb(&cfg)
			if cfg.Replay != nil {
				if _, err := NewSampler(cfg); err == nil {
					t.Errorf("Config.%s: NewSampler accepted a replay configuration", name)
				}
				continue
			}
			if !bytes.Equal(records(cfg), want) {
				t.Errorf("Config.%s (class %d) moved the record stream (tech %s, classes %v)",
					name, identity[name], base.Tech, base.IslandClasses)
			}
		}
	}
}

// TestIdentityKeyFormat: both keys are 16 hex digits and deterministic.
func TestIdentityKeyFormat(t *testing.T) {
	cfg := DefaultConfig(workload.Mix1())
	for _, k := range []string{cfg.Key(), cfg.WorkloadKey()} {
		if _, err := strconv.ParseUint(k, 16, 64); len(k) != 16 || err != nil {
			t.Errorf("key %q is not 16 hex digits", k)
		}
	}
	if cfg.Key() == cfg.WorkloadKey() {
		t.Error("Key and WorkloadKey agree on a config with compute-half fields")
	}
	if again := DefaultConfig(workload.Mix1()); again.Key() != cfg.Key() || again.WorkloadKey() != cfg.WorkloadKey() {
		t.Error("keys differ across two equal configurations")
	}
}
