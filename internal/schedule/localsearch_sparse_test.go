package schedule_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/schedule"
)

// TestLocalSearchMatchesUnitStepSparse is core's unit-step differential
// (TestLocalSearchMatchesUnitStep) with the sparse timeline representation
// forced, which these horizons would never reach on their own: the hill
// climber, skipping what no move touched, must reproduce every start and
// every counter of the scan that evaluates each task on each visit. It
// lives here because only a test of this directory can lower
// denseHorizonLimit.
func TestLocalSearchMatchesUnitStepSparse(t *testing.T) {
	defer schedule.ForceSparseTimelines()()
	ctx := context.Background()
	inst, zs, _ := schedule.ZonedHEFTInstance(t, 300, 1, 3)
	base, err := core.Greedy(ctx, inst, zs, core.Options{Score: core.ScorePressureW, Refined: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := schedule.NewZoneTimelines(inst, base, zs).DenseZones(); n != 0 {
		t.Fatalf("%d dense zone timelines, want none", n)
	}
	for _, mu := range []int64{3, 10, 30} {
		step := base.Clone()
		var stepStats core.Stats
		if err := core.LocalSearchUnitStep(ctx, inst, zs, step, mu, &stepStats); err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer(1)
		lctx, sp := obs.Start(obs.WithTracer(ctx, tr), "local-search")
		jump := base.Clone()
		var jumpStats core.Stats
		if err := core.LocalSearch(lctx, inst, zs, jump, mu, &jumpStats); err != nil {
			t.Fatal(err)
		}
		sp.End()
		for v := range jump.Start {
			if jump.Start[v] != step.Start[v] {
				t.Fatalf("mu %d: task %d start %d != %d (unit step)", mu, v, jump.Start[v], step.Start[v])
			}
		}
		if jumpStats != stepStats {
			t.Errorf("mu %d: stats %+v != unit step %+v", mu, jumpStats, stepStats)
		}
		if evals, _ := tr.Snapshot()[0].Root.Attrs["evals"].(int); evals == 0 || evals >= jumpStats.LSScans {
			t.Errorf("mu %d: %d evaluations for %d scans: no visit was skipped", mu, evals, jumpStats.LSScans)
		}
	}
}
