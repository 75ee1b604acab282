package sim

import (
	"errors"
	"testing"

	"github.com/cpm-sim/cpm/internal/snapshot"
	"github.com/cpm-sim/cpm/internal/workload"
)

// TestSamplerMatchesLiveChipRecords is the sampler's core contract at the
// sim layer: interval for interval, the standalone sampler produces exactly
// the records a live chip built from the same config samples — including
// while the live chip's DVFS trajectory diverges (records are frequency-
// independent; the live chip here runs unmanaged at its initial level,
// which is enough to pin the identity since check's farm tests cover
// managed trajectories end to end).
func TestSamplerMatchesLiveChipRecords(t *testing.T) {
	const intervals = 40
	cfg := DefaultConfig(workload.Mix1())
	cfg.Seed = 9
	cfg.RecordTraces = true
	live, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < intervals; k++ {
		live.Step()
	}
	set, err := live.Traces()
	if err != nil {
		t.Fatal(err)
	}

	scfg := cfg
	scfg.RecordTraces = false
	s, err := NewSampler(scfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < intervals; k++ {
		recs := s.Records(k)
		for id := 0; id < s.NumCores(); id++ {
			if recs[id] != set.Records[id][k] {
				t.Fatalf("interval %d core %d: sampler record %+v, live chip sampled %+v",
					k, id, recs[id], set.Records[id][k])
			}
		}
	}
}

// TestSamplerLockstepContract pins Records' three-way behaviour: cursor
// advances, cursor-1 replays the cached batch, anything else panics.
func TestSamplerLockstepContract(t *testing.T) {
	s, err := NewSampler(DefaultConfig(workload.Mix1()))
	if err != nil {
		t.Fatal(err)
	}
	r0 := s.Records(0)
	if s.Cursor() != 1 {
		t.Fatalf("cursor = %d after first batch, want 1", s.Cursor())
	}
	if again := s.Records(0); &again[0] != &r0[0] {
		t.Error("replaying the current interval did not return the cached batch")
	}
	s.Records(1)
	for _, bad := range []int{0, 3, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Records(%d) at cursor 2 did not panic", bad)
				}
			}()
			s.Records(bad)
		}()
	}
	s.Advance(5)
	if s.Cursor() != 7 {
		t.Fatalf("cursor = %d after Advance(5), want 7", s.Cursor())
	}
}

// TestSamplerSnapshotRoundTrip restores a mid-stream sampler snapshot into
// a fresh sampler and demands the continuation streams be identical.
func TestSamplerSnapshotRoundTrip(t *testing.T) {
	cfg := DefaultConfig(workload.Mix1())
	cfg.Seed = 3
	a, err := NewSampler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Advance(13)
	e := snapshot.NewEncoder()
	a.Snapshot(e)

	b, err := NewSampler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(snapshot.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if b.Cursor() != 13 {
		t.Fatalf("restored cursor = %d, want 13", b.Cursor())
	}
	for k := 13; k < 25; k++ {
		ra, rb := a.Records(k), b.Records(k)
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("interval %d core %d: restored sampler diverged", k, i)
			}
		}
	}

	// Shape mismatches must be rejected, not silently misapplied.
	c, err := NewSampler(DefaultConfig(workload.Mix3(2)))
	if err != nil {
		t.Fatal(err)
	}
	e2 := snapshot.NewEncoder()
	a.Snapshot(e2)
	if err := c.Restore(snapshot.NewDecoder(e2.Bytes())); err == nil {
		t.Error("32-core sampler accepted an 8-core snapshot")
	}
}

// TestSnapshotOwnedSamplerMismatch pins the v4 owned-sampler section: a
// chip built by New carries its sampler in its snapshot and a
// NewWithRecords chip does not, so restoring either into the other is a
// shape error rather than a chip silently running on the wrong workload
// state.
func TestSnapshotOwnedSamplerMismatch(t *testing.T) {
	cfg := DefaultConfig(tinyMix())
	build := func(owned bool) *CMP {
		if owned {
			return newCMP(t, cfg)
		}
		s, err := NewSampler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewWithRecords(cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, owned := range []bool{true, false} {
		src := build(owned)
		for k := 0; k < 3; k++ {
			src.Step()
		}
		raw := snapshotChip(t, src)
		err := build(!owned).Restore(snapshot.NewDecoder(raw))
		if !errors.Is(err, snapshot.ErrShape) {
			t.Errorf("owned=%v snapshot into owned=%v chip: want shape error, got %v", owned, !owned, err)
		}
		if err := build(owned).Restore(snapshot.NewDecoder(raw)); err != nil {
			t.Errorf("owned=%v snapshot into a matching chip: %v", owned, err)
		}
	}
}
