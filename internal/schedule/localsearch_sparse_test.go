package schedule_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/schedule"
)

// TestLocalSearchSparseMatchesDense runs the hill climber twice from the
// same greedy schedule: on the dense timelines these horizons get on their
// own, and with the sparse representation forced. Every start and every
// counter must agree, and the sparse run must still skip visits. Core's
// TestLocalSearchMatchesUnitStep holds the dense run on this exact
// instance to the unit-step oracle, so the sparse run answers to it too.
// The test lives here because only a test of this directory can lower
// denseHorizonLimit.
func TestLocalSearchSparseMatchesDense(t *testing.T) {
	ctx := context.Background()
	inst, zs, _ := schedule.ZonedHEFTInstance(t, 300, 1, 3)
	base, err := core.Greedy(ctx, inst, zs, core.Options{Score: core.ScorePressureW, Refined: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := schedule.NewZoneTimelines(inst, base, zs).DenseZones(); n != zs.NumZones() {
		t.Fatalf("%d of %d zone timelines dense, want all", n, zs.NumZones())
	}
	// search runs LocalSearch on a copy of base and returns the result,
	// its stats and the number of visits that ran an evaluation.
	search := func(mu int64) (*schedule.Schedule, core.Stats, int) {
		tr := obs.NewTracer(1)
		lctx, sp := obs.Start(obs.WithTracer(ctx, tr), "local-search")
		s := base.Clone()
		var st core.Stats
		if err := core.LocalSearch(lctx, inst, zs, s, mu, &st); err != nil {
			t.Fatal(err)
		}
		sp.End()
		evals, _ := tr.Snapshot()[0].Root.Attrs["evals"].(int)
		return s, st, evals
	}
	for _, mu := range []int64{3, 10, 30} {
		dense, denseStats, _ := search(mu)
		restore := schedule.ForceSparseTimelines()
		if n := schedule.NewZoneTimelines(inst, base, zs).DenseZones(); n != 0 {
			restore()
			t.Fatalf("%d dense zone timelines under ForceSparseTimelines, want none", n)
		}
		sparse, sparseStats, evals := search(mu)
		restore()
		for v := range sparse.Start {
			if sparse.Start[v] != dense.Start[v] {
				t.Fatalf("mu %d: task %d start %d != %d (dense)", mu, v, sparse.Start[v], dense.Start[v])
			}
		}
		if sparseStats != denseStats {
			t.Errorf("mu %d: stats %+v != dense %+v", mu, sparseStats, denseStats)
		}
		if evals == 0 || evals >= sparseStats.LSScans {
			t.Errorf("mu %d: %d evaluations for %d scans: no visit was skipped", mu, evals, sparseStats.LSScans)
		}
	}
}
