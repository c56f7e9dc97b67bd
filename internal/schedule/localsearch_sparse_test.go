package schedule_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
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
	if !schedule.DenseHorizon(zs.T()) {
		t.Fatalf("horizon %d is not dense on its own", zs.T())
	}
	// search runs LocalSearch on a copy of base and returns the result
	// and its stats.
	search := func(mu int64) (*schedule.Schedule, core.Stats) {
		s := base.Clone()
		var st core.Stats
		if err := core.LocalSearch(ctx, inst, zs, s, mu, &st); err != nil {
			t.Fatal(err)
		}
		return s, st
	}
	for _, mu := range []int64{3, 10, 30} {
		dense, denseStats := search(mu)
		restore := schedule.ForceSparseTimelines()
		if schedule.DenseHorizon(zs.T()) {
			restore()
			t.Fatalf("horizon %d still dense under ForceSparseTimelines", zs.T())
		}
		sparse, sparseStats := search(mu)
		restore()
		for v := range sparse.Start {
			if sparse.Start[v] != dense.Start[v] {
				t.Fatalf("mu %d: task %d start %d != %d (dense)", mu, v, sparse.Start[v], dense.Start[v])
			}
		}
		if sparseStats != denseStats {
			t.Errorf("mu %d: stats %+v != dense %+v", mu, sparseStats, denseStats)
		}
		if evals := sparseStats.LSEvals; evals == 0 || evals >= sparseStats.LSScans {
			t.Errorf("mu %d: %d evaluations for %d scans: no visit was skipped", mu, evals, sparseStats.LSScans)
		}
	}
}

// TestAnnealSparseMatchesDense runs the annealer from the ASAP schedule
// twice per instance: on dense timelines and with the sparse
// representation forced. Its proposals are drawn from CandidateStarts, so
// the two runs agree only if both forms propose exactly the same starts;
// every start and the final cost must be equal.
func TestAnnealSparseMatchesDense(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{40, 300} {
		for _, zones := range []int{1, 3} {
			for seed := uint64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("n %d/%d zones/seed %d", n, zones, seed)
				inst, zs, asap := schedule.ZonedHEFTInstance(t, n, seed, zones)
				anneal := func() (*schedule.Schedule, int64) {
					s := asap.Clone()
					cost, err := core.Anneal(ctx, inst, zs, s, core.AnnealOptions{Seed: seed})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return s, cost
				}
				dense, denseCost := anneal()
				restore := schedule.ForceSparseTimelines()
				sparse, sparseCost := anneal()
				restore()
				if sparseCost != denseCost {
					t.Errorf("%s: cost %d sparse, %d dense", name, sparseCost, denseCost)
					continue
				}
				for v := range sparse.Start {
					if sparse.Start[v] != dense.Start[v] {
						t.Errorf("%s: task %d start %d sparse, %d dense", name, v, sparse.Start[v], dense.Start[v])
						break
					}
				}
			}
		}
	}
}
