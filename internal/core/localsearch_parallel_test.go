package core

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/ceg"
	"repro/internal/heft"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/scherr"
	"repro/internal/wfgen"
)

// zonedCoreInstance builds a workflow instance on a round-robin K-zone
// small cluster with one independently generated profile per zone — the
// core-package twin of the schedule package's zonedHEFTInstance.
func zonedCoreInstance(t testing.TB, n int, seed uint64, zones int) (*ceg.Instance, *power.ZoneSet) {
	t.Helper()
	fam := wfgen.Families()[int(seed%4)]
	d, err := wfgen.Generate(fam, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	cluster := platform.SmallZoned(seed, zones)
	h, err := heft.Schedule(d, cluster)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := ceg.Build(d, ceg.FromHEFT(h.Proc, h.Order, h.Finish), cluster)
	if err != nil {
		t.Fatal(err)
	}
	T := ASAPMakespan(inst) * 2
	specs := make([]power.ZoneSpec, zones)
	for z := 0; z < zones; z++ {
		gmin, gmax := power.PlatformBounds(inst.ZoneIdlePower(z), cluster.ZoneComputeWork(z))
		specs[z] = power.ZoneSpec{
			Name:     string(rune('a' + z)),
			Scenario: power.Scenarios()[z%4],
			Gmin:     gmin,
			Gmax:     gmax,
		}
	}
	zs, err := power.GenerateZones(specs, T, 24, seed)
	if err != nil {
		t.Fatal(err)
	}
	return inst, zs
}

// TestLocalSearchWorkersMatchSequential pins the tentpole determinism
// guarantee: the speculative worker pool accepts exactly the moves the
// sequential scan accepts, for any worker count and zone layout, so the
// final starts, cost, and every Stats counter are bit-identical.
func TestLocalSearchWorkersMatchSequential(t *testing.T) {
	ctx := context.Background()
	counts := []int{2, 3, 4, runtime.GOMAXPROCS(0) + 1}
	for _, zones := range []int{1, 3} {
		for seed := uint64(1); seed <= 3; seed++ {
			inst, zs := zonedCoreInstance(t, 60, seed, zones)
			base, err := Greedy(ctx, inst, zs, Options{Score: ScorePressureW, Refined: true}, nil)
			if err != nil {
				t.Fatal(err)
			}

			seq := base.Clone()
			var seqSt Stats
			if err := LocalSearch(ctx, inst, zs, seq, DefaultMu, 1, &seqSt); err != nil {
				t.Fatal(err)
			}
			for _, w := range counts {
				par := base.Clone()
				var parSt Stats
				if err := LocalSearch(ctx, inst, zs, par, DefaultMu, w, &parSt); err != nil {
					t.Fatalf("zones=%d seed=%d workers=%d: %v", zones, seed, w, err)
				}
				for v := range seq.Start {
					if seq.Start[v] != par.Start[v] {
						t.Fatalf("zones=%d seed=%d workers=%d: task %d start %d != sequential %d",
							zones, seed, w, v, par.Start[v], seq.Start[v])
					}
				}
				if parSt != seqSt {
					t.Fatalf("zones=%d seed=%d workers=%d: stats %+v != sequential %+v",
						zones, seed, w, parSt, seqSt)
				}
				if got, want := schedule.CarbonCost(inst, par, zs), schedule.CarbonCost(inst, seq, zs); got != want {
					t.Fatalf("zones=%d seed=%d workers=%d: cost %d != sequential %d", zones, seed, w, got, want)
				}
			}
		}
	}
}

// TestRunSearchWorkersIdentical pins the end-to-end wiring: RunWith
// with Options.SearchWorkers set produces the same schedule and stats as
// the default sequential run, for both greedy flavors.
func TestRunSearchWorkersIdentical(t *testing.T) {
	ctx := context.Background()
	inst, zs := zonedCoreInstance(t, 50, 2, 3)
	for _, marginal := range []bool{false, true} {
		run := func(workers int) (*schedule.Schedule, Stats) {
			opt := Options{Score: ScorePressureW, Refined: true, LocalSearch: true, SearchWorkers: workers}
			s, st, err := RunWith(ctx, inst, zs, opt, marginal)
			if err != nil {
				t.Fatalf("marginal=%v workers=%d: %v", marginal, workers, err)
			}
			return s, st
		}
		s1, st1 := run(0)
		s4, st4 := run(4)
		for v := range s1.Start {
			if s1.Start[v] != s4.Start[v] {
				t.Fatalf("marginal=%v: task %d start differs: %d vs %d", marginal, v, s1.Start[v], s4.Start[v])
			}
		}
		if st1 != st4 {
			t.Fatalf("marginal=%v: stats differ: %+v vs %+v", marginal, st1, st4)
		}
	}
}

// TestLocalSearchWorkersCanceled: a canceled context stops the pooled
// search within one round with the canonical cancellation error, and the
// schedule left behind is still feasible (every accepted move preserves
// feasibility, and the committer stops cleanly between commits).
func TestLocalSearchWorkersCanceled(t *testing.T) {
	inst, zs := zonedCoreInstance(t, 60, 1, 3)
	s := ASAP(inst)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := LocalSearch(ctx, inst, zs, s, DefaultMu, 4, nil)
	if !errors.Is(err, scherr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v does not wrap the context error", err)
	}
	if verr := schedule.Validate(inst, s, zs.T()); verr != nil {
		t.Fatalf("schedule left infeasible after cancellation: %v", verr)
	}
}
