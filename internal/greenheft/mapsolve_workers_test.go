package greenheft

import (
	"context"
	"errors"
	"runtime"
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

// TestMapAndSolveWorkersIdentical pins that the candidate fan-out is pure
// mechanism: MapAndSolve at any Workers count returns the same winning
// policy, instance shape, schedule, stats, and per-candidate audit trail
// as the sequential search. Each run gets a cluster of its own, built from
// the same arguments; the link table is fixed at construction, so the
// processor ids compared below mean the same on every one.
func TestMapAndSolveWorkersIdentical(t *testing.T) {
	ctx := context.Background()
	d, err := wfgen.Generate(wfgen.Methylseq, 100, 5)
	if err != nil {
		t.Fatal(err)
	}

	// Build the shared supply against a throwaway cluster: zone idle/work
	// totals are functions of the cluster structure, identical across the
	// per-run clones below.
	scratch := platform.SmallZoned(5, 3)
	inst0, err := MapInstance(d, scratch, Options{Policy: EFT})
	if err != nil {
		t.Fatal(err)
	}
	T := 2 * core.ASAPMakespan(inst0)
	specs := make([]power.ZoneSpec, 3)
	for z := range specs {
		gmin, gmax := power.PlatformBounds(inst0.ZoneIdlePower(z), scratch.ZoneComputeWork(z))
		specs[z] = power.ZoneSpec{Name: string(rune('a' + z)), Scenario: power.Scenarios()[z%4], Gmin: gmin, Gmax: gmax}
	}
	zs, err := power.GenerateZones(specs, T, 24, 5)
	if err != nil {
		t.Fatal(err)
	}

	run := func(workers int) *MapSolveResult {
		t.Helper()
		res, err := MapAndSolve(ctx, d, platform.SmallZoned(5, 3), zs, MapSolveOptions{
			Sched:   core.Options{Score: core.ScorePressureW, Refined: true, LocalSearch: true},
			Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}

	want := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		if got.Policy != want.Policy || got.Cost != want.Cost || got.D != want.D {
			t.Fatalf("workers=%d: winner (%v, %d, %d) != sequential (%v, %d, %d)",
				workers, got.Policy, got.Cost, got.D, want.Policy, want.Cost, want.D)
		}
		if got.Stats != want.Stats {
			t.Fatalf("workers=%d: stats %+v != sequential %+v", workers, got.Stats, want.Stats)
		}
		if len(got.Schedule.Start) != len(want.Schedule.Start) {
			t.Fatalf("workers=%d: schedule sizes differ", workers)
		}
		for v := range want.Schedule.Start {
			if got.Schedule.Start[v] != want.Schedule.Start[v] {
				t.Fatalf("workers=%d: node %d start %d != sequential %d",
					workers, v, got.Schedule.Start[v], want.Schedule.Start[v])
			}
		}
		// The winning instances were built on independent cluster clones;
		// identical processor assignment pins the sequential mapping pass.
		for v := range want.Inst.Proc {
			if got.Inst.Proc[v] != want.Inst.Proc[v] {
				t.Fatalf("workers=%d: node %d on proc %d != sequential %d",
					workers, v, got.Inst.Proc[v], want.Inst.Proc[v])
			}
		}
		if len(got.Outcomes) != len(want.Outcomes) {
			t.Fatalf("workers=%d: %d outcomes != %d", workers, len(got.Outcomes), len(want.Outcomes))
		}
		for i := range want.Outcomes {
			if got.Outcomes[i] != want.Outcomes[i] {
				t.Fatalf("workers=%d: outcome %d %+v != sequential %+v",
					workers, i, got.Outcomes[i], want.Outcomes[i])
			}
		}
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

// TestSearchWorkersCanceled: the candidate fan-out stops on a canceled
// context like the sequential search does — same error, which wraps both
// scherr.ErrCanceled and the context's own error, no result, and every
// worker goroutine gone by the time Search returns — whether the context
// was canceled before the planning pass or from inside the first
// candidate's solve, while the other workers are solving theirs.
func TestSearchWorkersCanceled(t *testing.T) {
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
	// candidate is still solving when the cancellation lands, at any
	// worker count.
	const at = 3
	search := func(workers int, canceledBefore bool) error {
		t.Helper()
		before := runtime.NumGoroutine()
		base, cancel := context.WithCancel(context.Background())
		defer cancel()
		ctx := &cancelOnPoll{Context: base, cancel: cancel, at: at}
		if canceledBefore {
			cancel()
		}
		res, err := Search(ctx, zs, MapSolveOptions{Sched: sched, Workers: workers},
			func(_ context.Context, pol Policy) (*ceg.Instance, int64, error) {
				if canceledBefore {
					t.Errorf("workers=%d: planned %s under a canceled context", workers, pol)
				}
				if pol == policies[len(policies)-1] {
					ctx.armed.Store(true) // the planning pass polls no more; the solves are next
				}
				return insts[pol], ds[pol], nil
			})
		if res != nil {
			t.Errorf("workers=%d: a result beside the error %v", workers, err)
		}
		if !errors.Is(err, scherr.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want ErrCanceled wrapping context.Canceled", workers, err)
		}
		if !canceledBefore && ctx.polls.Load() < at {
			t.Fatalf("workers=%d: canceled after %d polls, before any solve reached poll %d", workers, ctx.polls.Load(), at)
		}
		// Search has waited for its workers; a goroutine that has signalled
		// the wait group may still be on its way out.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d goroutines, %d before the search", workers, runtime.NumGoroutine(), before)
			}
		}
		return err
	}
	for _, canceledBefore := range []bool{true, false} {
		want := search(1, canceledBefore)
		if got := search(4, canceledBefore); got.Error() != want.Error() {
			t.Errorf("canceled before planning=%v: workers=4 returned %q, workers=1 %q", canceledBefore, got, want)
		}
	}
}
