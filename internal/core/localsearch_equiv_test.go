package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ceg"
	"repro/internal/heft"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/schedule"
	"repro/internal/scherr"
	"repro/internal/wfgen"
)

// equivInstance builds a small mapped instance with a generated profile,
// mirroring the experiment pipeline but on a 4-processor cluster so the
// property test stays fast.
func equivInstance(t *testing.T, fam wfgen.Family, n int, seed uint64, factor float64, sc power.Scenario) (*ceg.Instance, *power.Profile) {
	t.Helper()
	d, err := wfgen.Generate(fam, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	cluster := platform.New([]platform.ProcType{
		{Name: "fast", Speed: 2, Idle: 2, Work: 9},
		{Name: "slow", Speed: 1, Idle: 1, Work: 4},
	}, []int{2, 2}, seed)
	h, err := heft.Schedule(d, cluster)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := ceg.Build(d, ceg.FromHEFT(h.Proc, h.Order, h.Finish), cluster)
	if err != nil {
		t.Fatal(err)
	}
	D := ASAPMakespan(inst)
	T := int64(float64(D)*factor + 0.5)
	gmin, gmax := power.PlatformBounds(inst.TotalIdlePower(), cluster.ComputeWork())
	prof, err := power.Generate(sc, T, 24, gmin, gmax, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return inst, prof
}

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

// TestLocalSearchMatchesUnitStep is the equivalence property of the
// interval-jumping rewrite and of the cross-round skip (lsSettled): the
// accelerated scan must accept exactly the moves of the unit-step scan,
// which evaluates every task on every visit, and so produce identical
// start times and identical counters. The zoned cases are large enough to
// run many rounds; evals < scans there proves the skip was exercised rather
// than never taken.
func TestLocalSearchMatchesUnitStep(t *testing.T) {
	ctx := context.Background()
	fams := wfgen.Families()
	for seed := uint64(1); seed <= 6; seed++ {
		fam := fams[int(seed)%len(fams)]
		inst, prof := equivInstance(t, fam, 45, seed, 2, power.Scenarios()[int(seed)%4])
		zs := power.SingleZone(prof)
		base, _, err := Run(ctx, inst, zs, Options{Score: ScorePressureW, Refined: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, mu := range []int64{3, 10, 30} {
			checkMatchesUnitStep(t, inst, zs, base, mu)
		}
	}
	for seed := uint64(1); seed <= 2; seed++ {
		inst, zs := zonedCoreInstance(t, 300, seed, 3)
		base, err := Greedy(ctx, inst, zs, Options{Score: ScorePressureW, Refined: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, mu := range []int64{3, 10, 30} {
			scans, evals := checkMatchesUnitStep(t, inst, zs, base, mu)
			if evals == 0 || evals >= scans {
				t.Errorf("seed %d mu %d: %d evaluations for %d scans: no visit was skipped",
					seed, mu, evals, scans)
			}
		}
	}
}

// checkMatchesUnitStep runs LocalSearch and LocalSearchUnitStep from the
// same schedule and fails on any difference in a start time or a counter
// (but LSEvals: the unit-step scan skips no visit). It returns
// LocalSearch's scans and evaluations.
func checkMatchesUnitStep(t *testing.T, inst *ceg.Instance, zs *power.ZoneSet, base *schedule.Schedule, mu int64) (scans, evals int) {
	t.Helper()
	ctx := context.Background()
	jump, step := base.Clone(), base.Clone()
	var jumpStats, stepStats Stats
	if err := LocalSearch(ctx, inst, zs, jump, mu, &jumpStats); err != nil {
		t.Fatal(err)
	}
	if err := LocalSearchUnitStep(ctx, inst, zs, step, mu, &stepStats); err != nil {
		t.Fatal(err)
	}
	for v := range jump.Start {
		if jump.Start[v] != step.Start[v] {
			t.Fatalf("mu %d: task %d start %d != %d (unit step)", mu, v, jump.Start[v], step.Start[v])
		}
	}
	stepStats.LSEvals = jumpStats.LSEvals
	if jumpStats != stepStats {
		t.Errorf("mu %d: stats %+v != unit step %+v", mu, jumpStats, stepStats)
	}
	if err := schedule.Validate(inst, jump, zs.T()); err != nil {
		t.Fatal(err)
	}
	return jumpStats.LSScans, jumpStats.LSEvals
}

// TestLocalSearchNeverWorseThanUnitStep is the weaker ≤ property on larger
// instances with the paper's full platform, guarding against any scenario
// where the scans could diverge: the interval-jumping result must never
// cost more than the unit-step result, and both must never exceed the
// greedy cost.
func TestLocalSearchNeverWorseThanUnitStep(t *testing.T) {
	if testing.Short() {
		t.Skip("large instances")
	}
	for seed := uint64(1); seed <= 3; seed++ {
		d, err := wfgen.Generate(wfgen.Eager, 120, seed)
		if err != nil {
			t.Fatal(err)
		}
		cluster := platform.Small(seed)
		h, err := heft.Schedule(d, cluster)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := ceg.Build(d, ceg.FromHEFT(h.Proc, h.Order, h.Finish), cluster)
		if err != nil {
			t.Fatal(err)
		}
		D := ASAPMakespan(inst)
		gmin, gmax := power.PlatformBounds(inst.TotalIdlePower(), cluster.ComputeWork())
		prof, err := power.Generate(power.S3, 2*D, 24, gmin, gmax, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		s, st, err := Run(context.Background(), inst, power.SingleZone(prof), Options{Score: ScoreSlack})
		if err != nil {
			t.Fatal(err)
		}
		greedyCost := st.Cost
		jump := s.Clone()
		step := s.Clone()
		LocalSearch(context.Background(), inst, power.SingleZone(prof), jump, DefaultMu, nil)
		LocalSearchUnitStep(context.Background(), inst, power.SingleZone(prof), step, DefaultMu, nil)
		jumpCost := schedule.CarbonCost(inst, jump, power.SingleZone(prof))
		stepCost := schedule.CarbonCost(inst, step, power.SingleZone(prof))
		if jumpCost > stepCost {
			t.Errorf("seed %d: jump cost %d > unit-step cost %d", seed, jumpCost, stepCost)
		}
		if jumpCost > greedyCost {
			t.Errorf("seed %d: local search worsened cost %d > %d", seed, jumpCost, greedyCost)
		}
	}
}

// TestLSSettledSkipIsExact checks the invalidation rule at every visit
// rather than through the final schedule: it replays the sequential scan
// evaluating every task, and a task lsSettled would have skipped must
// evaluate to "no move". One-unit buckets test the rule as stated (DAG
// neighbours and overlapping windows); the production width tests the
// outward rounding.
func TestLSSettledSkipIsExact(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		inst, zs := zonedCoreInstance(t, 150, seed, 3)
		base, err := Greedy(context.Background(), inst, zs, Options{Score: ScoreSlack}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, mu := range []int64{3, 10, 30} {
			for _, shift := range []uint{0, lsBucketShift} {
				checkSkipIsExact(t, inst, zs, base.Clone(), mu, shift)
			}
		}
	}
}

func checkSkipIsExact(t *testing.T, inst *ceg.Instance, zs *power.ZoneSet, s *schedule.Schedule, mu int64, shift uint) {
	T := zs.T()
	tls := schedule.NewZoneTimelines(inst, s, zs)
	d := newLSSettled(inst, zs)
	d.shift = shift
	for z := range d.stamp {
		d.stamp[z] = make([]int, T>>shift+1)
	}
	skips := 0
	for improved := true; improved; {
		improved = false
		for _, v := range scanOrder(inst) {
			dur, cur := inst.Dur[v], s.Start[v]
			lo, hi := moveWindow(inst, s, v, T, mu)
			_, work := inst.ProcPower(v)
			cand, _, ok := tls.For(v).FirstImprovingMove(cur, lo, hi, dur, work)
			switch {
			case d.skip(v):
				skips++
				if ok {
					t.Fatalf("mu %d shift %d: task %d would be skipped after commit %d, but moving %d → %d improves",
						mu, shift, v, d.commits, cur, cand)
				}
			case !ok:
				d.settle(v, lo, hi, dur)
			default:
				tls.For(v).ApplyMove(cur, cand, dur, work)
				s.Start[v] = cand
				d.commit(inst, v, cur, cand, dur)
				improved = true
			}
		}
	}
	if skips == 0 {
		t.Errorf("mu %d shift %d: no visit was skipped", mu, shift)
	}
}

// lateCancelCtx reports cancellation once the search has made `from`
// scans. The sequential scan polls it on its own goroutine, so reading the
// counter it advances is not a race.
type lateCancelCtx struct {
	context.Context
	st   *Stats
	from int
}

func (c lateCancelCtx) Err() error {
	if c.st.LSScans >= c.from {
		return context.Canceled
	}
	return nil
}

// TestLocalSearchSeqCanceledInSkippedRound: the final round finds nothing
// to move and skips nearly every task, and a skipped visit must still
// advance the context poll: a context canceled as that round begins is
// noticed within ctxCheckStride visits.
func TestLocalSearchSeqCanceledInSkippedRound(t *testing.T) {
	inst, zs := zonedCoreInstance(t, 300, 1, 3)
	base, err := Greedy(context.Background(), inst, zs, Options{Score: ScorePressureW, Refined: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var full Stats
	if err := LocalSearch(context.Background(), inst, zs, base.Clone(), DefaultMu, &full); err != nil {
		t.Fatal(err)
	}
	perRound := full.LSScans / full.LSRounds
	if full.LSRounds < 2 || perRound < 2*ctxCheckStride {
		t.Fatalf("instance too small to cancel inside its last round: %+v", full)
	}
	var st Stats
	s := base.Clone()
	from := full.LSScans - perRound + 1
	err = LocalSearch(lateCancelCtx{context.Background(), &st, from}, inst, zs, s, DefaultMu, &st)
	if !errors.Is(err, scherr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if st.LSRounds != full.LSRounds || st.LSScans >= from+ctxCheckStride {
		t.Errorf("canceled from scan %d, noticed at %+v (a full run: %+v)", from, st, full)
	}
	if err := schedule.Validate(inst, s, zs.T()); err != nil {
		t.Fatalf("schedule left infeasible after cancellation: %v", err)
	}
}
