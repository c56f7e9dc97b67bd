package core

import (
	"context"

	"testing"
	"testing/quick"

	"repro/internal/ceg"
	"repro/internal/dag"
	"repro/internal/heft"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/schedule"
	"repro/internal/wfgen"
)

// testInstance builds a HEFT-mapped workflow instance plus a profile with
// the given deadline factor.
func testInstance(tb testing.TB, fam wfgen.Family, n int, seed uint64, sc power.Scenario, factor float64) (*ceg.Instance, *power.Profile) {
	tb.Helper()
	d, err := wfgen.Generate(fam, n, seed)
	if err != nil {
		tb.Fatal(err)
	}
	cluster := platform.Small(seed)
	h, err := heft.Schedule(d, cluster)
	if err != nil {
		tb.Fatal(err)
	}
	inst, err := ceg.Build(d, ceg.FromHEFT(h.Proc, h.Order, h.Finish), cluster)
	if err != nil {
		tb.Fatal(err)
	}
	D := ASAPMakespan(inst)
	T := int64(float64(D) * factor)
	if T < D {
		T = D
	}
	gmin, gmax := power.PlatformBounds(inst.TotalIdlePower(), cluster.ComputeWork())
	prof, err := power.Generate(sc, T, 24, gmin, gmax, rng.New(seed))
	if err != nil {
		tb.Fatal(err)
	}
	return inst, prof
}

// uniChain builds a single-processor chain instance with explicit durations
// (speed 1) and powers.
func uniChain(tb testing.TB, weights []int64, idle, work int64) *ceg.Instance {
	tb.Helper()
	n := len(weights)
	d := dag.New(n)
	order := make([]int, n)
	finish := make([]int64, n)
	var cum int64
	for i := range weights {
		d.SetWeight(i, weights[i])
		if i > 0 {
			d.AddEdge(i-1, i, 1)
		}
		order[i] = i
		cum += weights[i]
		finish[i] = cum
	}
	cluster := platform.New([]platform.ProcType{{Name: "U", Speed: 1, Idle: idle, Work: work}}, []int{1}, 1)
	inst, err := ceg.Build(d, &ceg.Mapping{Proc: make([]int, n), Order: [][]int{order}, Finish: finish}, cluster)
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

func TestASAPStartsEverythingEarliest(t *testing.T) {
	inst := uniChain(t, []int64{2, 3, 4}, 1, 1)
	s := ASAP(inst)
	want := []int64{0, 2, 5}
	for v, w := range want {
		if s.Start[v] != w {
			t.Errorf("ASAP start[%d] = %d, want %d", v, s.Start[v], w)
		}
	}
	if got := ASAPMakespan(inst); got != 9 {
		t.Errorf("ASAPMakespan = %d, want 9", got)
	}
}

func TestASAPIsValidAndMinimal(t *testing.T) {
	inst, prof := testInstance(t, wfgen.Atacseq, 100, 1, power.S1, 2)
	s := ASAP(inst)
	if err := schedule.Validate(inst, s, prof.T()); err != nil {
		t.Fatal(err)
	}
	// No schedule can finish earlier than the ASAP makespan.
	if schedule.Makespan(inst, s) != ASAPMakespan(inst) {
		t.Error("ASAP makespan inconsistent")
	}
}

func TestWindowsInitialization(t *testing.T) {
	inst := uniChain(t, []int64{2, 3}, 1, 1)
	w, err := newWindows(inst, 10)
	if err != nil {
		t.Fatal(err)
	}
	// est: 0, 2. lst: task1 must start by 10-3=7, so task0 by 7-2=5.
	if w.est[0] != 0 || w.est[1] != 2 {
		t.Errorf("est = %v", w.est)
	}
	if w.lst[0] != 5 || w.lst[1] != 7 {
		t.Errorf("lst = %v", w.lst)
	}
	if w.Slack(0) != 5 || w.Slack(1) != 5 {
		t.Errorf("slack = %d, %d, want 5, 5", w.Slack(0), w.Slack(1))
	}
	if err := w.check(); err != nil {
		t.Error(err)
	}
}

func TestWindowsInfeasibleDeadline(t *testing.T) {
	inst := uniChain(t, []int64{2, 3}, 1, 1)
	if _, err := newWindows(inst, 4); err == nil {
		t.Error("deadline below ASAP makespan not rejected")
	}
	if _, err := newWindows(inst, 5); err != nil {
		t.Errorf("exact deadline rejected: %v", err)
	}
}

func TestWindowsFixPropagates(t *testing.T) {
	inst := uniChain(t, []int64{2, 3, 1}, 1, 1)
	w, err := newWindows(inst, 12)
	if err != nil {
		t.Fatal(err)
	}
	w.Fix(1, 5) // task1 runs [5, 8)
	if w.est[2] != 8 {
		t.Errorf("est[2] = %d, want 8 after fixing task1 at 5", w.est[2])
	}
	if w.lst[0] != 3 {
		t.Errorf("lst[0] = %d, want 3 (must end by 5)", w.lst[0])
	}
	if err := w.check(); err != nil {
		t.Error(err)
	}
}

func TestWindowsFixPanicsOutside(t *testing.T) {
	inst := uniChain(t, []int64{2, 3}, 1, 1)
	w, _ := newWindows(inst, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("Fix outside window did not panic")
		}
	}()
	w.Fix(0, 9)
}

func TestWindowsFixPropertyRandom(t *testing.T) {
	// Fixing tasks in arbitrary order at arbitrary in-window starts must
	// keep all windows non-empty and consistent.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		inst, prof := testInstance(t, wfgen.Families()[r.Intn(4)], 30, seed, power.S4, 1.5)
		w, err := newWindows(inst, prof.T())
		if err != nil {
			return false
		}
		perm := r.Perm(inst.N())
		for _, v := range perm {
			span := w.lst[v] - w.est[v]
			start := w.est[v]
			if span > 0 {
				start += r.Int63n(span + 1)
			}
			w.Fix(v, start)
		}
		if w.check() != nil {
			return false
		}
		s := &schedule.Schedule{Start: w.est}
		return schedule.Validate(inst, s, prof.T()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestScoreNames(t *testing.T) {
	want := map[Score]string{
		ScoreSlack: "slack", ScoreSlackW: "slackW",
		ScorePressure: "press", ScorePressureW: "pressW",
	}
	for sc, name := range want {
		if sc.String() != name {
			t.Errorf("%v.String() = %q, want %q", int(sc), sc.String(), name)
		}
	}
}

func TestTaskOrderSlackAscending(t *testing.T) {
	inst, prof := testInstance(t, wfgen.Eager, 60, 2, power.S1, 2)
	w, err := newWindows(inst, prof.T())
	if err != nil {
		t.Fatal(err)
	}
	order := taskOrder(w, ScoreSlack)
	for i := 1; i < len(order); i++ {
		if w.Slack(order[i-1]) > w.Slack(order[i]) {
			t.Fatalf("slack order not ascending at %d", i)
		}
	}
}

func TestTaskOrderPressureDescending(t *testing.T) {
	inst, prof := testInstance(t, wfgen.Eager, 60, 2, power.S1, 2)
	w, err := newWindows(inst, prof.T())
	if err != nil {
		t.Fatal(err)
	}
	order := taskOrder(w, ScorePressure)
	pressure := func(v int) float64 {
		return float64(inst.Dur[v]) / float64(w.Slack(v)+inst.Dur[v])
	}
	for i := 1; i < len(order); i++ {
		if pressure(order[i-1]) < pressure(order[i]) {
			t.Fatalf("pressure order not descending at %d", i)
		}
	}
}

func TestTaskOrderIsPermutation(t *testing.T) {
	inst, prof := testInstance(t, wfgen.Bacass, 57, 3, power.S2, 1.5)
	w, _ := newWindows(inst, prof.T())
	for _, sc := range Scores() {
		order := taskOrder(w, sc)
		seen := make([]bool, inst.N())
		for _, v := range order {
			if seen[v] {
				t.Fatalf("%v: duplicate in order", sc)
			}
			seen[v] = true
		}
	}
}

func TestVariantNames(t *testing.T) {
	want := []string{"slack", "slackW", "slackR", "slackWR", "press", "pressW", "pressR", "pressWR"}
	got := Variants(false)
	if len(got) != 8 {
		t.Fatalf("Variants returned %d options, want 8", len(got))
	}
	for i, opt := range got {
		if opt.Name() != want[i] {
			t.Errorf("variant %d = %q, want %q", i, opt.Name(), want[i])
		}
	}
	ls := Variants(true)
	if ls[3].Name() != "slackWR-LS" || ls[7].Name() != "pressWR-LS" {
		t.Errorf("LS names wrong: %q, %q", ls[3].Name(), ls[7].Name())
	}
	if len(AllVariants()) != 16 {
		t.Errorf("AllVariants = %d, want 16", len(AllVariants()))
	}
}

func TestOptionDefaults(t *testing.T) {
	var o Options
	if o.EffectiveK() != 3 || o.EffectiveMu() != 10 {
		t.Errorf("defaults k=%d mu=%d, want 3, 10", o.EffectiveK(), o.EffectiveMu())
	}
	o = Options{K: 5, Mu: 20}
	if o.EffectiveK() != 5 || o.EffectiveMu() != 20 {
		t.Error("explicit values overridden")
	}
}

func TestGreedyProducesValidSchedules(t *testing.T) {
	inst, prof := testInstance(t, wfgen.Atacseq, 120, 5, power.S1, 2)
	for _, opt := range Variants(false) {
		var st Stats
		s, err := Greedy(context.Background(), inst, power.SingleZone(prof), opt, &st)
		if err != nil {
			t.Fatalf("%s: %v", opt.Name(), err)
		}
		if err := schedule.Validate(inst, s, prof.T()); err != nil {
			t.Errorf("%s: invalid schedule: %v", opt.Name(), err)
		}
		if st.Intervals < prof.J() {
			t.Errorf("%s: %d intervals < profile J %d", opt.Name(), st.Intervals, prof.J())
		}
	}
}

func TestGreedyRefinedHasMoreIntervals(t *testing.T) {
	inst, prof := testInstance(t, wfgen.Bacass, 57, 7, power.S3, 2)
	var stN, stR Stats
	if _, err := Greedy(context.Background(), inst, power.SingleZone(prof), Options{Score: ScoreSlack}, &stN); err != nil {
		t.Fatal(err)
	}
	if _, err := Greedy(context.Background(), inst, power.SingleZone(prof), Options{Score: ScoreSlack, Refined: true}, &stR); err != nil {
		t.Fatal(err)
	}
	if stR.Intervals <= stN.Intervals {
		t.Errorf("refined intervals %d not above normal %d", stR.Intervals, stN.Intervals)
	}
}

func TestGreedyBeatsASAPOnLateGreenPower(t *testing.T) {
	// All green power arrives late: ASAP burns brown power early, the
	// greedy should shift work into the green window.
	inst := uniChain(t, []int64{3, 3}, 0, 10)
	prof, err := power.NewProfile([]int64{10, 10}, []int64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	asapCost := schedule.CarbonCost(inst, ASAP(inst), power.SingleZone(prof))
	for _, opt := range Variants(false) {
		s, err := Greedy(context.Background(), inst, power.SingleZone(prof), opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		cost := schedule.CarbonCost(inst, s, power.SingleZone(prof))
		if cost > asapCost {
			t.Errorf("%s: cost %d worse than ASAP %d", opt.Name(), cost, asapCost)
		}
		if cost != 0 {
			t.Errorf("%s: cost %d, want 0 (both tasks fit in the green window)", opt.Name(), cost)
		}
	}
}

func TestRunAllVariantsValidAndStats(t *testing.T) {
	inst, prof := testInstance(t, wfgen.Methylseq, 100, 11, power.S3, 2)
	asapCost := schedule.CarbonCost(inst, ASAP(inst), power.SingleZone(prof))
	for _, opt := range AllVariants() {
		s, st, err := Run(context.Background(), inst, power.SingleZone(prof), opt)
		if err != nil {
			t.Fatalf("%s: %v", opt.Name(), err)
		}
		if err := schedule.Validate(inst, s, prof.T()); err != nil {
			t.Errorf("%s: %v", opt.Name(), err)
		}
		if st.Cost != schedule.CarbonCost(inst, s, power.SingleZone(prof)) {
			t.Errorf("%s: Stats.Cost mismatch", opt.Name())
		}
		if opt.LocalSearch && st.Cost > st.GreedyCost {
			t.Errorf("%s: local search worsened cost %d → %d", opt.Name(), st.GreedyCost, st.Cost)
		}
		_ = asapCost
	}
}

func TestLocalSearchNeverWorsens(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		inst, prof := testInstance(t, wfgen.Families()[seed%4], 80, seed, power.S1, 1.5)
		s, err := Greedy(context.Background(), inst, power.SingleZone(prof), Options{Score: ScorePressure, Refined: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := schedule.CarbonCost(inst, s, power.SingleZone(prof))
		var st Stats
		LocalSearch(context.Background(), inst, power.SingleZone(prof), s, 10, &st)
		after := schedule.CarbonCost(inst, s, power.SingleZone(prof))
		if after > before {
			t.Errorf("seed %d: LS worsened %d → %d", seed, before, after)
		}
		if before-after != st.LSGain {
			t.Errorf("seed %d: LSGain %d != actual gain %d", seed, st.LSGain, before-after)
		}
		if err := schedule.Validate(inst, s, prof.T()); err != nil {
			t.Errorf("seed %d: LS broke schedule: %v", seed, err)
		}
	}
}

func TestLocalSearchImprovesBadSchedule(t *testing.T) {
	// One task, all green power in [0, 5), task parked at t=5 by ASAP?
	// No — park it manually in the brown zone and let LS pull it back.
	inst := uniChain(t, []int64{3}, 0, 10)
	prof, err := power.NewProfile([]int64{5, 5}, []int64{10, 0})
	if err != nil {
		t.Fatal(err)
	}
	s := schedule.New(1)
	s.Start[0] = 7 // fully brown: cost 30
	var st Stats
	LocalSearch(context.Background(), inst, power.SingleZone(prof), s, 10, &st)
	if got := schedule.CarbonCost(inst, s, power.SingleZone(prof)); got != 0 {
		t.Errorf("LS left cost %d, want 0 (move into the green window)", got)
	}
	if st.LSMoves == 0 {
		t.Error("LS reported no moves")
	}
}

func TestRunInfeasibleDeadline(t *testing.T) {
	inst := uniChain(t, []int64{5, 5}, 1, 1)
	prof := power.Constant(9, 100) // ASAP needs 10
	if _, _, err := Run(context.Background(), inst, power.SingleZone(prof), Options{}); err == nil {
		t.Error("infeasible deadline not reported")
	}
}

func TestGreedyWithExactDeadline(t *testing.T) {
	// T = D leaves zero slack: every variant must reproduce a schedule
	// with the ASAP makespan.
	inst, prof0 := testInstance(t, wfgen.Bacass, 57, 13, power.S1, 1)
	D := ASAPMakespan(inst)
	prof := prof0.Clip(D)
	for _, opt := range AllVariants() {
		s, _, err := Run(context.Background(), inst, power.SingleZone(prof), opt)
		if err != nil {
			t.Fatalf("%s: %v", opt.Name(), err)
		}
		if schedule.Makespan(inst, s) > D {
			t.Errorf("%s: makespan %d > deadline %d", opt.Name(), schedule.Makespan(inst, s), D)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	inst, prof := testInstance(t, wfgen.Eager, 90, 17, power.S2, 2)
	for _, opt := range []Options{{Score: ScoreSlackW, Refined: true, LocalSearch: true}} {
		a, _, err := Run(context.Background(), inst, power.SingleZone(prof), opt)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := Run(context.Background(), inst, power.SingleZone(prof), opt)
		if err != nil {
			t.Fatal(err)
		}
		for v := range a.Start {
			if a.Start[v] != b.Start[v] {
				t.Fatalf("non-deterministic at node %d", v)
			}
		}
	}
}

func TestAllVariantsValidProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		fam := wfgen.Families()[r.Intn(4)]
		factor := []float64{1, 1.5, 2, 3}[r.Intn(4)]
		sc := power.Scenarios()[r.Intn(4)]
		inst, prof := testInstance(t, fam, 40, seed, sc, factor)
		opt := AllVariants()[r.Intn(16)]
		s, _, err := Run(context.Background(), inst, power.SingleZone(prof), opt)
		if err != nil {
			return false
		}
		return schedule.Validate(inst, s, prof.T()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
