package metrics

import (
	"testing"

	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/power"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/workload"
)

// TestResidencyCardinalityPerIsland is the audit regression for the
// chip-global Table() assumption in the observer: on a chip whose islands
// run different tables, each island's residency counter family must have
// exactly its own table's level count — a chip-wide cardinality would
// either misindex the little island or fabricate levels it cannot reach
// (and the legacy accessor panics outright on such a chip).
func TestResidencyCardinalityPerIsland(t *testing.T) {
	cfg := sim.DefaultConfig(workload.Mix{
		Name:    "tiny",
		Islands: [][]string{{"bschls"}, {"fsim"}},
	})
	cfg.IslandClasses = []power.CoreClass{power.ClassOoO, power.ClassLittleIO}
	cmp, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := NewObserver(NewRegistry(), ObserverOptions{Label: "hetero"})
	o.RunStart(engine.RunInfo{Islands: cmp.NumIslands(), Chip: cmp})
	if len(o.residency) != cmp.NumIslands() {
		t.Fatalf("residency for %d islands, chip has %d", len(o.residency), cmp.NumIslands())
	}
	for i := range o.residency {
		if got, want := len(o.residency[i]), cmp.IslandTable(i).Levels(); got != want {
			t.Errorf("island %d residency has %d levels, its table has %d", i, got, want)
		}
	}
}
