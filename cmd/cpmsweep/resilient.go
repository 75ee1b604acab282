package main

import (
	"fmt"
	"io"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/snapshot"
	"github.com/cpm-sim/cpm/internal/sweepd"
)

// sweepResilient is the crash-safe route: every point — the unmanaged
// baseline plus a CPM and a MaxBIPS run per budget, the same layout as the
// other routes — becomes a sweepd point driven by the coordinator. Workers
// checkpoint at interval boundaries; a killed (or panicked) worker's point
// migrates to a survivor and resumes from its latest checkpoint, and the
// CSV stays byte-identical to the farm route at any worker count and under
// any kill schedule.
//
// Under -warmstart the warm chip snapshot becomes the root of the
// checkpoint lineage tree: every point forks from it, and its periodic
// checkpoints chain beneath it — the snapshot-tree generalization of the
// linear warm-start fork.
func sweepResilient(cfg sim.Config, cal core.Calibration, o sweepOptions, logw io.Writer) ([]engine.Summary, []*check.Suite, error) {
	var warmState []byte
	var err error
	tree := sweepd.NewTree()
	root := -1
	if o.WarmStart {
		if warmState, err = warmChipSnapshot(cfg, o.Warm); err != nil {
			return nil, nil, err
		}
		if root, err = tree.Add(-1, "warm", o.Warm*20, warmState); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(logw, "warm-started: %d warm epochs simulated once, forked across %d budget points\n",
			o.Warm, len(o.Fracs))
	}

	// Names carry the point index so repeated fracs stay unique (names are
	// checkpoint fingerprints).
	nPts := numPoints(o)
	pts := make([]sweepd.Point, nPts)
	base := make([]int, nPts)
	suites := make([]*check.Suite, nPts) // final incarnation per point
	for i := range pts {
		i := i
		name := "unmanaged"
		if i > 0 {
			pi := (i - 1) / 2
			name = fmt.Sprintf("%s-%d-%.2f", pointKind(i), pi, o.Fracs[pi])
		}
		base[i] = root
		// Each Build is one incarnation of the point: a fresh chip (forked
		// from the warm snapshot when there is one) carrying its stack.
		pts[i] = sweepd.Point{Name: name, Build: func() (*sweepd.Instance, error) {
			cmp, warm, err := forkWarmChip(cfg, warmState, o.Warm)
			if err != nil {
				return nil, err
			}
			sess, suite, err := wirePoint(cmp, o, cal, i, warm)
			if err != nil {
				return nil, err
			}
			suites[i] = suite
			inst := &sweepd.Instance{Session: sess}
			if suite != nil {
				inst.Check = suite.Err
			}
			return inst, nil
		}}
	}

	c, err := sweepd.New(pts, sweepd.Config{
		Workers:         o.Workers,
		CheckpointEvery: o.CkptEvery,
		KillEvery:       o.KillEvery,
		Metrics:         sweepd.NewInstruments(o.Metrics, o.Mix.Name),
		Log:             logw,
		Tree:            tree,
		TreeBase:        base,
	})
	if err != nil {
		return nil, nil, err
	}
	sums, err := c.Run()
	st := c.Stats()
	fmt.Fprintf(logw, "resilient sweep: %d points, %d checkpoints (%d bytes total, %d max), %d kills, %d migrations (%d resumed from checkpoints)\n",
		nPts, st.Checkpoints, st.CheckpointBytes, st.MaxCheckpointBytes, st.Kills, st.Migrations, st.Restores)
	if err != nil {
		return nil, nil, err
	}
	// The coordinator's boundary checks catch mid-run violations; sweep's
	// final pass over the suites covers the tail intervals after the last
	// boundary check.
	return sums, suites, nil
}

// warmChipSnapshot steps a fresh unmanaged chip through the warm-up window
// and returns its full-state snapshot, to be forked by every point.
func warmChipSnapshot(cfg sim.Config, warmEpochs int) ([]byte, error) {
	cmp, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	for k := 0; k < warmEpochs*20; k++ {
		cmp.Step()
	}
	e := snapshot.NewEncoder()
	if err := cmp.Snapshot(e); err != nil {
		return nil, err
	}
	return e.Bytes(), nil
}

// forkWarmChip builds a fresh chip and, when a warm snapshot is given,
// restores the shared warm state into it and zeroes the remaining warm-up.
// The snapshot bytes are only read, so concurrent points can fork from the
// same buffer.
func forkWarmChip(cfg sim.Config, warmState []byte, warm int) (*sim.CMP, int, error) {
	cmp, err := sim.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	if warmState == nil {
		return cmp, warm, nil
	}
	if err := cmp.Restore(snapshot.NewDecoder(warmState)); err != nil {
		return nil, 0, fmt.Errorf("cpmsweep: forking warm chip: %w", err)
	}
	return cmp, 0, nil
}
