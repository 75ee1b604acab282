package sim

import (
	"bytes"
	"math"
	"testing"

	"github.com/cpm-sim/cpm/internal/snapshot"
	"github.com/cpm-sim/cpm/internal/uarch"
	"github.com/cpm-sim/cpm/internal/workload"
)

// recordRun captures a trace set from a live run while collecting its
// per-interval chip power.
func recordRun(t *testing.T, intervals int, levelAt func(k int) int) (uarch.TraceSet, []float64) {
	t.Helper()
	cfg := DefaultConfig(workload.Mix1())
	cfg.RecordTraces = true
	c := newCMP(t, cfg)
	var powers []float64
	for k := 0; k < intervals; k++ {
		if levelAt != nil {
			for i := 0; i < c.NumIslands(); i++ {
				c.SetLevel(i, levelAt(k))
			}
		}
		powers = append(powers, c.Step().ChipPowerW)
	}
	set, err := c.Traces()
	if err != nil {
		t.Fatal(err)
	}
	return set, powers
}

// Replaying a trace under the same DVFS trajectory must reproduce the live
// run's observable behaviour exactly (power, throughput).
func TestReplayReproducesLiveRun(t *testing.T) {
	levels := func(k int) int { return (k / 7) % 8 }
	set, livePowers := recordRun(t, 60, levels)

	cfg := DefaultConfig(workload.Mix1())
	cfg.Replay = &set
	r := newCMP(t, cfg)
	for k := 0; k < 60; k++ {
		for i := 0; i < r.NumIslands(); i++ {
			r.SetLevel(i, levels(k))
		}
		got := r.Step().ChipPowerW
		if math.Abs(got-livePowers[k]) > 1e-9 {
			t.Fatalf("interval %d: replay power %v, live %v", k, got, livePowers[k])
		}
	}
}

// The point of frequency-independent records: the same trace replayed at a
// different operating point behaves like the workload would have — here,
// pinned low, it must consume less power than the recorded high-frequency
// run.
func TestReplayUnderDifferentTrajectory(t *testing.T) {
	set, livePowers := recordRun(t, 40, func(int) int { return 7 })
	cfg := DefaultConfig(workload.Mix1())
	cfg.Replay = &set
	r := newCMP(t, cfg)
	var replayLow float64
	for k := 0; k < 40; k++ {
		for i := 0; i < r.NumIslands(); i++ {
			r.SetLevel(i, 0)
		}
		replayLow += r.Step().ChipPowerW
	}
	var liveHigh float64
	for _, p := range livePowers {
		liveHigh += p
	}
	if replayLow >= liveHigh {
		t.Errorf("replay at the bottom level (%v) should consume less than the level-7 recording (%v)", replayLow, liveHigh)
	}
}

func TestReplayWrapsAround(t *testing.T) {
	set, _ := recordRun(t, 10, nil)
	cfg := DefaultConfig(workload.Mix1())
	cfg.Replay = &set
	// Decouple the memory-contention feedback (latency depends on previous
	// traffic, which never becomes exactly periodic); with an effectively
	// unlimited channel, replay behaviour is strictly periodic.
	cfg.Mem.BandwidthGBs = 1e9
	r := newCMP(t, cfg)
	// Run three times the trace length; throughput must repeat with period
	// 10 (same records, same levels, same memory-contention pattern).
	// Power is deliberately NOT compared: die temperature is integrative
	// state that keeps warming across periods, so leakage differs.
	var first, third []float64
	for k := 0; k < 30; k++ {
		p := r.Step().TotalBIPS
		if k < 10 {
			first = append(first, p)
		}
		if k >= 20 {
			third = append(third, p)
		}
	}
	for i := 0; i < 10; i++ {
		// Tolerance: the residual ~1e-10 channel utilization still perturbs
		// latency at the tenth decimal.
		if math.Abs(first[i]-third[i]) > 1e-6 {
			t.Fatalf("interval %d: wrap-around diverged: %v vs %v", i, first[i], third[i])
		}
	}
}

func TestReplayValidation(t *testing.T) {
	set, _ := recordRun(t, 5, nil)
	// Mismatched mix: Mix-2 assigns different benchmarks to the cores.
	cfg := DefaultConfig(workload.Mix2())
	cfg.Replay = &set
	if _, err := New(cfg); err == nil {
		t.Error("replaying a Mix-1 trace on Mix-2 should be rejected")
	}
	// Missing core.
	delete(set.Records, 3)
	delete(set.Benchmarks, 3)
	cfg = DefaultConfig(workload.Mix1())
	cfg.Replay = &set
	if _, err := New(cfg); err == nil {
		t.Error("incomplete trace set should be rejected")
	}
	// Record+replay together.
	set2, _ := recordRun(t, 5, nil)
	cfg = DefaultConfig(workload.Mix1())
	cfg.Replay = &set2
	cfg.RecordTraces = true
	if _, err := New(cfg); err == nil {
		t.Error("recording while replaying should be rejected")
	}
}

func TestTracesRequiresRecording(t *testing.T) {
	c := newCMP(t, DefaultConfig(workload.Mix1()))
	if _, err := c.Traces(); err == nil {
		t.Error("Traces without RecordTraces should error")
	}
}

func TestTraceSetSaveLoadRoundTrip(t *testing.T) {
	set, _ := recordRun(t, 8, nil)
	var buf bytes.Buffer
	if err := uarch.SaveTraces(&buf, set); err != nil {
		t.Fatal(err)
	}
	got, err := uarch.LoadTraces(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(set.Records) {
		t.Fatalf("round trip lost cores: %d vs %d", len(got.Records), len(set.Records))
	}
	for id, recs := range set.Records {
		if len(got.Records[id]) != len(recs) {
			t.Fatalf("core %d trace length changed", id)
		}
		if got.Records[id][3] != recs[3] {
			t.Fatalf("core %d record mutated in transit", id)
		}
		if got.Benchmarks[id] != set.Benchmarks[id] {
			t.Fatalf("core %d benchmark name lost", id)
		}
	}
	// Validation catches corrupt sets.
	bad := uarch.TraceSet{
		Benchmarks: map[int]string{0: "bschls"},
		Records:    map[int][]uarch.TraceRecord{0: {}},
	}
	var b2 bytes.Buffer
	if err := uarch.SaveTraces(&b2, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := uarch.LoadTraces(&b2); err == nil {
		t.Error("empty per-core trace should be rejected on load")
	}
	if err := uarch.SaveTraces(&b2, uarch.TraceSet{}); err == nil {
		t.Error("empty set should be rejected on save")
	}
}

// A replay chip runs on the recorded trace alone: no sampler, no caches
// (CacheStats stays zero), yet it produces throughput past the trace end.
func TestReplayCoreIsolated(t *testing.T) {
	set, _ := recordRun(t, 6, nil)
	cfg := DefaultConfig(workload.Mix1())
	cfg.Replay = &set
	r := newCMP(t, cfg)
	sum := 0.0
	for k := 0; k < 12; k++ {
		sum += r.Step().TotalBIPS
	}
	if sum <= 0 {
		t.Fatal("replay produced no throughput")
	}
	if r.sampler != nil || r.CacheStats() != (CacheStats{}) {
		t.Error("replay chip owns a sampler or reports cache traffic")
	}
}

// The replay source keeps no cursor: a replay chip restored from a
// mid-trace snapshot continues exactly where the original does, wrap-around
// included.
func TestReplaySnapshotResume(t *testing.T) {
	set, _ := recordRun(t, 7, nil)
	cfg := DefaultConfig(workload.Mix1())
	cfg.Replay = &set
	a := newCMP(t, cfg)
	for k := 0; k < 5; k++ {
		a.Step()
	}
	b := newCMP(t, cfg)
	if err := b.Restore(snapshot.NewDecoder(snapshotChip(t, a))); err != nil {
		t.Fatal(err)
	}
	for k := 5; k < 20; k++ {
		if ra, rb := a.Step(), b.Step(); ra.ChipPowerW != rb.ChipPowerW || ra.TotalBIPS != rb.TotalBIPS {
			t.Fatalf("interval %d: resumed replay diverged: %+v vs %+v", k, rb, ra)
		}
	}
}
