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
// Under -warmstart the warm chip snapshots become the roots of the
// checkpoint lineage tree: every budget point forks from a root, and its
// periodic checkpoints chain beneath it — the snapshot-tree generalization
// of the linear warm-start fork.
func sweepResilient(cfg sim.Config, cal core.Calibration, o sweepOptions, logw io.Writer) ([]sweepRow, error) {
	var warmManaged, warmBase []byte
	var err error
	tree := sweepd.NewTree()
	rootManaged, rootBase := -1, -1
	bcfg := cfg
	bcfg.InitialLevel = -1
	if o.WarmStart {
		if warmManaged, err = warmChipSnapshot(cfg, o.Warm); err != nil {
			return nil, err
		}
		if warmBase, err = warmChipSnapshot(bcfg, o.Warm); err != nil {
			return nil, err
		}
		if rootManaged, err = tree.Add(-1, "warm:managed", o.Warm*20, warmManaged); err != nil {
			return nil, err
		}
		if rootBase, err = tree.Add(-1, "warm:unmanaged", o.Warm*20, warmBase); err != nil {
			return nil, err
		}
		fmt.Fprintf(logw, "warm-started: %d warm epochs simulated once, forked across %d budget points\n",
			o.Warm, len(o.Fracs))
	}

	// Point layout: 0 = unmanaged baseline, then per budget a CPM and a
	// MaxBIPS point. Names carry the index so repeated fracs stay unique
	// (names are checkpoint fingerprints).
	nPts := 1 + 2*len(o.Fracs)
	pts := make([]sweepd.Point, nPts)
	base := make([]int, nPts)
	suites := make([]*check.Suite, nPts) // final incarnation per point
	// point builds one incarnation of point i: a fresh chip (forked from
	// the warm snapshot when there is one) carrying the point's stack.
	point := func(i int, name string, cfg sim.Config, warmState []byte,
		fn func(cmp *sim.CMP, warm int) (*engine.Session, *check.Suite, error)) sweepd.Point {
		return sweepd.Point{Name: name, Build: func() (*sweepd.Instance, error) {
			cmp, warm, err := forkWarmChip(cfg, warmState, o.Warm)
			if err != nil {
				return nil, err
			}
			sess, suite, err := fn(cmp, warm)
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
	pts[0] = point(0, "unmanaged", bcfg, warmBase, func(cmp *sim.CMP, warm int) (*engine.Session, *check.Suite, error) {
		return buildUnmanaged(cmp, o, warm)
	})
	base[0] = rootBase
	for pi, frac := range o.Fracs {
		pi, frac := pi, frac
		budget := cal.BudgetW(frac)
		idxCPM, idxMB := 1+2*pi, 2+2*pi
		pts[idxCPM] = point(idxCPM, fmt.Sprintf("cpm-%d-%.2f", pi, frac), cfg, warmManaged,
			func(cmp *sim.CMP, warm int) (*engine.Session, *check.Suite, error) {
				return buildCPM(cmp, o, cal, frac, warm)
			})
		pts[idxMB] = point(idxMB, fmt.Sprintf("maxbips-%d-%.2f", pi, frac), cfg, warmManaged,
			func(cmp *sim.CMP, warm int) (*engine.Session, *check.Suite, error) {
				return buildMaxBIPS(cmp, o, budget, frac, warm)
			})
		base[idxCPM], base[idxMB] = rootManaged, rootManaged
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
		return nil, err
	}
	sums, err := c.Run()
	st := c.Stats()
	fmt.Fprintf(logw, "resilient sweep: %d points, %d checkpoints (%d bytes total, %d max), %d kills, %d migrations (%d resumed from checkpoints)\n",
		nPts, st.Checkpoints, st.CheckpointBytes, st.MaxCheckpointBytes, st.Kills, st.Migrations, st.Restores)
	if err != nil {
		return nil, err
	}
	// The coordinator's boundary checks catch mid-run violations; this
	// final pass covers the tail intervals after the last boundary check,
	// with the same wrapping as the farm route.
	for pi, frac := range o.Fracs {
		budget := cal.BudgetW(frac)
		if s := suites[1+2*pi]; s != nil {
			if err := s.Err(); err != nil {
				return nil, fmt.Errorf("budget %.2f W: %w", budget, err)
			}
		}
		if s := suites[2+2*pi]; s != nil {
			if err := s.Err(); err != nil {
				return nil, fmt.Errorf("maxbips budget %.2f W: %w", budget, err)
			}
		}
	}
	if s := suites[0]; s != nil {
		if err := s.Err(); err != nil {
			return nil, err
		}
	}

	rows := make([]sweepRow, len(o.Fracs))
	baseSum := sums[0]
	for pi, frac := range o.Fracs {
		ours, mb := sums[1+2*pi], sums[2+2*pi]
		rows[pi] = sweepRow{
			frac: frac, budgetW: cal.BudgetW(frac),
			oursPowerW: ours.MeanPowerW, oursDegr: engine.Degradation(ours, baseSum),
			maxbipsPowerW: mb.MeanPowerW, maxbipsDegr: engine.Degradation(mb, baseSum),
		}
	}
	return rows, nil
}

// warmChipSnapshot steps a fresh unmanaged chip through the warm-up window
// and returns its full-state snapshot, to be forked by every budget point.
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
