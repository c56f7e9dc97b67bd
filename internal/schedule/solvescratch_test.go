package schedule_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/ceg"
	"repro/internal/core"
	"repro/internal/heft"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/wfgen"
)

// scratchInstance builds an n-task HEFT instance on a zoned cluster with a
// horizon of factor × the ASAP makespan and one profile per zone of one
// interval per 20 units, the density of the admission workload's supply.
func scratchInstance(tb testing.TB, n int, seed uint64, zones int, factor int64) (*ceg.Instance, *power.ZoneSet) {
	tb.Helper()
	d, err := wfgen.Generate(wfgen.Families()[int(seed%4)], n, seed)
	if err != nil {
		tb.Fatal(err)
	}
	cluster := platform.SmallZoned(seed, zones)
	h, err := heft.Schedule(d, cluster)
	if err != nil {
		tb.Fatal(err)
	}
	inst, err := ceg.Build(d, ceg.FromHEFT(h.Proc, h.Order, h.Finish), cluster)
	if err != nil {
		tb.Fatal(err)
	}
	T := core.ASAPMakespan(inst) * factor
	specs := make([]power.ZoneSpec, zones)
	for z := range specs {
		gmin, gmax := power.PlatformBounds(inst.ZoneIdlePower(z), cluster.ZoneComputeWork(z))
		specs[z] = power.ZoneSpec{Name: fmt.Sprint("z", z), Scenario: power.Scenarios()[z%4], Gmin: gmin, Gmax: gmax}
	}
	zs, err := power.GenerateZones(specs, T, int(max(T/20, 4)), seed)
	if err != nil {
		tb.Fatal(err)
	}
	return inst, zs
}

// TestRunCostMatchesSweep holds the costs core.Run reports without a
// sweep of its own to the sweep: Stats.Cost, which is GreedyCost − LSGain,
// must equal CarbonCost of the final schedule, and Stats.GreedyCost that
// of the greedy's schedule. It covers every variant on 1–3 zones at
// deadline factors 2 and 30, on the dense timelines and on the sparse
// ones, all in one process, so the runs also reuse each other's scratch.
func TestRunCostMatchesSweep(t *testing.T) {
	ctx := context.Background()
	for _, sparse := range []bool{false, true} {
		if sparse {
			restore := schedule.ForceSparseTimelines()
			defer restore()
		}
		for zones := 1; zones <= 3; zones++ {
			for _, factor := range []int64{2, 30} {
				for seed := uint64(1); seed <= 2; seed++ {
					inst, zs := scratchInstance(t, 60, seed, zones, factor)
					for _, opt := range core.AllVariants() {
						name := fmt.Sprintf("%s/%d zones/DF %d/seed %d/sparse %v", opt.Name(), zones, factor, seed, sparse)
						s, st, err := core.Run(ctx, inst, zs, opt)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if want := schedule.CarbonCost(inst, s, zs); st.Cost != want {
							t.Errorf("%s: Stats.Cost %d (greedy %d − gain %d), sweep %d", name, st.Cost, st.GreedyCost, st.LSGain, want)
						}
						g, err := core.Greedy(ctx, inst, zs, opt, nil)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if want := schedule.CarbonCost(inst, g, zs); st.GreedyCost != want {
							t.Errorf("%s: Stats.GreedyCost %d, sweep of the greedy schedule %d", name, st.GreedyCost, want)
						}
					}
				}
			}
		}
	}
}

// solveAnswer is what a solve hands back, less the wall-clock times.
type solveAnswer struct {
	start []int64
	st    core.Stats
}

func solveOnce(inst *ceg.Instance, zs *power.ZoneSet, opt core.Options) (solveAnswer, error) {
	s, st, err := core.Run(context.Background(), inst, zs, opt)
	if err != nil {
		return solveAnswer{}, err
	}
	st.GreedyTime, st.LSTime = 0, 0
	return solveAnswer{s.Start, st}, nil
}

// TestSolveScratchReuse solves over a horizon of about 3 000 units, then
// about 200, then 3 000 again, so the short solve runs on storage a long
// one left dirty and the second long one on storage the short one
// resliced. Every answer must equal the answer on fresh storage, which the
// reference solves get by running after two GC cycles: those empty every
// sync.Pool, so they allocate as a fresh process would. The sequence runs
// once in order and then from four goroutines at once.
func TestSolveScratchReuse(t *testing.T) {
	long, longZones := scratchInstance(t, 60, 1, 2, 30)
	short, shortZones := scratchInstance(t, 60, 2, 2, 2)
	if T := longZones.T(); T < 2000 || T > 4000 {
		t.Fatalf("long horizon %d, want about 3 000", T)
	}
	if T := shortZones.T(); T < 100 || T > 400 {
		t.Fatalf("short horizon %d, want about 200", T)
	}
	type job struct {
		inst *ceg.Instance
		zs   *power.ZoneSet
	}
	seq := []job{{long, longZones}, {short, shortZones}, {long, longZones}}
	for _, opt := range []core.Options{
		{Score: core.ScorePressureW, Refined: true, LocalSearch: true},
		{Score: core.ScoreSlack, LocalSearch: true},
	} {
		fresh := make([]solveAnswer, len(seq))
		for i, j := range seq {
			runtime.GC()
			runtime.GC()
			var err error
			if fresh[i], err = solveOnce(j.inst, j.zs, opt); err != nil {
				t.Fatal(err)
			}
		}
		check := func(who string, i int) {
			got, err := solveOnce(seq[i].inst, seq[i].zs, opt)
			if err != nil {
				t.Errorf("%s, %s, solve %d: %v", opt.Name(), who, i, err)
			} else if !reflect.DeepEqual(got, fresh[i]) {
				t.Errorf("%s, %s, solve %d (T = %d): the answer differs from the one on fresh storage:\n%+v\nwant\n%+v",
					opt.Name(), who, i, seq[i].zs.T(), got.st, fresh[i].st)
			}
		}
		for i := range seq {
			check("in order", i)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range seq {
					check(fmt.Sprint("goroutine ", g), i)
				}
			}()
		}
		wg.Wait()
	}
}
