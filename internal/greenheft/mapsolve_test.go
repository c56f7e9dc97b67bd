package greenheft

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ceg"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/scherr"
	"repro/internal/wfgen"
)

// TestSearchMatchesSerialReevaluation holds MapAndSolve to an independent
// serial re-evaluation: core.Run on each policy's MapInstance. Every
// outcome must carry its re-evaluation's makespan, cost or error, and
// deterministic stats; the winner must be the first strictly cheapest
// feasible candidate, with that candidate's mapping, schedule and stats.
// The supply spans twice the EFT makespan, where every candidate is
// feasible, and is then clipped to the EFT makespan itself, where some
// are not, so both kinds of outcome are checked; a third, all-green
// supply ties every candidate at cost 0.
func TestSearchMatchesSerialReevaluation(t *testing.T) {
	ctx := context.Background()
	d, err := wfgen.Generate(wfgen.Methylseq, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	c := platform.SmallZoned(5, 3)
	eft, err := MapInstance(d, c, Options{Policy: EFT})
	if err != nil {
		t.Fatal(err)
	}
	D := core.ASAPMakespan(eft)
	specs := make([]power.ZoneSpec, 3)
	for z := range specs {
		gmin, gmax := power.PlatformBounds(eft.ZoneIdlePower(z), c.ZoneComputeWork(z))
		specs[z] = power.ZoneSpec{Name: string(rune('a' + z)), Scenario: power.Scenarios()[z%4], Gmin: gmin, Gmax: gmax}
	}
	wide, err := power.GenerateZones(specs, 2*D, 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	// An all-green supply prices every feasible candidate at 0: the tie
	// goes to the first.
	green := make([]power.Zone, 3)
	for z := range green {
		prof, err := power.NewProfile([]int64{2 * D}, []int64{1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		green[z] = power.Zone{Name: specs[z].Name, Profile: prof}
	}
	allGreen, err := power.NewZoneSet(green...)
	if err != nil {
		t.Fatal(err)
	}
	sched := core.Options{Score: core.ScorePressureW, Refined: true, LocalSearch: true}
	// deterministic drops the wall-clock fields, the only ones two runs
	// of the same input may disagree on.
	deterministic := func(st core.Stats) core.Stats {
		st.GreedyTime, st.LSTime = 0, 0
		return st
	}

	policies := AllPolicies()
	feasible, infeasible := 0, 0
	for _, zs := range []*power.ZoneSet{wide, wide.Clip(D), allGreen} {
		res, err := MapAndSolve(ctx, d, c, zs, MapSolveOptions{Sched: sched})
		if err != nil {
			t.Fatalf("T=%d: %v", zs.T(), err)
		}
		if len(res.Outcomes) != len(policies) {
			t.Fatalf("T=%d: %d outcomes for %d policies", zs.T(), len(res.Outcomes), len(policies))
		}
		best := -1
		var bestInst *ceg.Instance
		var bestStart []int64
		var bestStats core.Stats
		for i, pol := range policies {
			inst, err := MapInstance(d, c, Options{Policy: pol, Zones: zs})
			if err != nil {
				t.Fatal(err)
			}
			s, st, runErr := core.Run(ctx, inst, zs, sched)
			out := res.Outcomes[i]
			if out.Policy != pol || out.D != core.ASAPMakespan(inst) {
				t.Fatalf("T=%d: outcome %d is (%v, D=%d), re-evaluation (%v, D=%d)",
					zs.T(), i, out.Policy, out.D, pol, core.ASAPMakespan(inst))
			}
			if deterministic(out.Stats) != deterministic(st) {
				t.Errorf("T=%d %v: stats %+v, re-evaluation %+v", zs.T(), pol, out.Stats, st)
			}
			if runErr != nil {
				infeasible++
				if out.Err != runErr.Error() {
					t.Errorf("T=%d %v: error %q, re-evaluation %q", zs.T(), pol, out.Err, runErr)
				}
				continue
			}
			feasible++
			if out.Err != "" || out.Cost != st.Cost {
				t.Errorf("T=%d %v: (cost %d, error %q), re-evaluation cost %d", zs.T(), pol, out.Cost, out.Err, st.Cost)
			}
			if best < 0 || st.Cost < bestStats.Cost {
				best, bestInst, bestStart, bestStats = i, inst, s.Start, st
			}
		}
		if best < 0 {
			t.Fatalf("T=%d: no candidate feasible on re-evaluation, but the search answered", zs.T())
		}
		if res.Policy != policies[best] || res.Cost != bestStats.Cost || res.D != res.Outcomes[best].D {
			t.Fatalf("T=%d: winner (%v, cost %d, D=%d), re-evaluation (%v, cost %d, D=%d)", zs.T(),
				res.Policy, res.Cost, res.D, policies[best], bestStats.Cost, res.Outcomes[best].D)
		}
		if deterministic(res.Stats) != deterministic(bestStats) {
			t.Errorf("T=%d: winner's stats %+v, re-evaluation %+v", zs.T(), res.Stats, bestStats)
		}
		if !slices.Equal(res.Schedule.Start, bestStart) || !slices.Equal(res.Inst.Proc, bestInst.Proc) {
			t.Errorf("T=%d: the winner's schedule or mapping differs from its re-evaluation", zs.T())
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("%d feasible and %d infeasible candidates: want both kinds", feasible, infeasible)
	}
}

// cancelOnPoll cancels itself from inside whichever solve makes the at-th
// call to Err after it is armed. The schedulers poll Err, never Done, so
// this is how a cancellation is made to land in the middle of a solve at
// the same place on every run.
type cancelOnPoll struct {
	context.Context
	cancel context.CancelFunc
	at     int64
	armed  atomic.Bool
	polls  atomic.Int64
}

func (c *cancelOnPoll) Err() error {
	// Every poll from the at-th on cancels (a no-op after the first), so
	// none of them can return before the cancellation is in place.
	if c.armed.Load() && c.polls.Add(1) >= c.at {
		c.cancel()
	}
	return c.Context.Err()
}

// TestSearchCanceled: a canceled search returns an error that wraps both
// scherr.ErrCanceled and the context's own error, and no result — whether
// the context was canceled before the planning pass (nothing is planned)
// or from inside the first candidate's solve — and leaves no goroutine
// behind.
func TestSearchCanceled(t *testing.T) {
	d, err := wfgen.Generate(wfgen.Methylseq, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, zs := zonedGrid(t, 5, 3)
	policies := AllPolicies()
	insts := make(map[Policy]*ceg.Instance, len(policies))
	ds := make(map[Policy]int64, len(policies))
	var T int64
	for _, pol := range policies {
		inst, err := MapInstance(d, c, Options{Policy: pol, Zones: zs})
		if err != nil {
			t.Fatal(err)
		}
		insts[pol], ds[pol] = inst, core.ASAPMakespan(inst)
		T = max(T, 2*ds[pol])
	}
	zs = zs.Clip(T)
	sched := core.Options{Score: core.ScorePressureW, Refined: true, LocalSearch: true}

	// A solve of 300 tasks polls at least four times (every 256 placements
	// of the greedy, every 256 scans of the local search), so the first
	// candidate is still solving when the cancellation lands.
	const at = 3
	for _, canceledBefore := range []bool{true, false} {
		before := runtime.NumGoroutine()
		base, cancel := context.WithCancel(context.Background())
		ctx := &cancelOnPoll{Context: base, cancel: cancel, at: at}
		if canceledBefore {
			cancel()
		}
		res, err := Search(ctx, zs, MapSolveOptions{Sched: sched},
			func(_ context.Context, pol Policy) (*ceg.Instance, int64, error) {
				if canceledBefore {
					t.Errorf("planned %s under a canceled context", pol)
				}
				if pol == policies[len(policies)-1] {
					ctx.armed.Store(true) // the planning pass polls no more; the solves are next
				}
				return insts[pol], ds[pol], nil
			})
		cancel()
		if res != nil {
			t.Errorf("canceled before planning=%v: a result beside the error %v", canceledBefore, err)
		}
		if !errors.Is(err, scherr.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled before planning=%v: err = %v, want ErrCanceled wrapping context.Canceled", canceledBefore, err)
		}
		if !canceledBefore && ctx.polls.Load() < at {
			t.Fatalf("canceled after %d polls, before the first solve reached poll %d", ctx.polls.Load(), at)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("canceled before planning=%v: %d goroutines, %d before the search",
					canceledBefore, runtime.NumGoroutine(), before)
			}
		}
	}
}
