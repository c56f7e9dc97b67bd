package sim

import (
	"context"

	"testing"
	"testing/quick"

	"repro/internal/ceg"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/heft"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/schedule"
	"repro/internal/wfgen"
)

func testInstance(tb testing.TB, n int, seed uint64) (*ceg.Instance, *power.Profile, *schedule.Schedule) {
	tb.Helper()
	fam := wfgen.Families()[int(seed%4)]
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
	D := core.ASAPMakespan(inst)
	gmin, gmax := power.PlatformBounds(inst.TotalIdlePower(), cluster.ComputeWork())
	prof, err := power.Generate(power.S1, 2*D, 24, gmin, gmax, rng.New(seed))
	if err != nil {
		tb.Fatal(err)
	}
	s, _, err := core.Run(context.Background(), inst, power.SingleZone(prof), core.Options{Score: core.ScorePressureW, Refined: true, LocalSearch: true})
	if err != nil {
		tb.Fatal(err)
	}
	return inst, prof, s
}

func TestReplayReproducesPlan(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		inst, prof, plan := testInstance(t, 60, seed)
		res, err := Replay(inst, plan, prof)
		if err != nil {
			t.Fatal(err)
		}
		for v := range plan.Start {
			if res.Start[v] != plan.Start[v] {
				t.Fatalf("seed %d: replay moved node %d: %d → %d", seed, v, plan.Start[v], res.Start[v])
			}
			if res.Dur[v] != inst.Dur[v] {
				t.Fatalf("seed %d: replay changed duration of %d", seed, v)
			}
		}
		if res.Shifted != 0 {
			t.Errorf("seed %d: replay shifted %d nodes", seed, res.Shifted)
		}
		if !res.DeadlineMet {
			t.Errorf("seed %d: replay missed the deadline", seed)
		}
		if want := schedule.CarbonCost(inst, plan, power.SingleZone(prof)); res.Cost != want {
			t.Errorf("seed %d: replay cost %d != static cost %d", seed, res.Cost, want)
		}
		if res.Makespan != schedule.Makespan(inst, plan) {
			t.Errorf("seed %d: replay makespan mismatch", seed)
		}
	}
}

func TestEnergySplitConsistency(t *testing.T) {
	inst, prof, plan := testInstance(t, 50, 2)
	res, err := Replay(inst, plan, prof)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != res.BrownEnergy {
		t.Errorf("Cost %d != BrownEnergy %d", res.Cost, res.BrownEnergy)
	}
	// Total energy must equal Σ_t P_t: idle over the horizon plus
	// work-power·duration per node.
	want := inst.TotalIdlePower() * prof.T()
	for v := 0; v < inst.N(); v++ {
		_, work := inst.ProcPower(v)
		want += work * inst.Dur[v]
	}
	if res.TotalEnergy() != want {
		t.Errorf("TotalEnergy = %d, want %d", res.TotalEnergy(), want)
	}
	if f := res.GreenFraction(); f < 0 || f > 1 {
		t.Errorf("GreenFraction = %v", f)
	}
}

func TestGreenFractionDegenerate(t *testing.T) {
	r := &Result{}
	if r.GreenFraction() != 1 {
		t.Error("zero-energy execution should count as fully green")
	}
}

func TestNoiseFactorDeterministic(t *testing.T) {
	n := Noise{RelStdDev: 0.2, Seed: 9}
	if n.factor(5) != n.factor(5) {
		t.Error("factor not deterministic")
	}
	if n.factor(5) == n.factor(6) {
		t.Error("factor identical across nodes (suspicious)")
	}
	exact := Noise{}
	if exact.factor(3) != 1 {
		t.Error("zero noise should give factor 1")
	}
}

func TestBiasLengthensRuntimes(t *testing.T) {
	inst, prof, plan := testInstance(t, 50, 1)
	res, err := Execute(inst, plan, prof, Noise{Bias: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= schedule.Makespan(inst, plan) {
		t.Errorf("30%% slower tasks did not extend the makespan (%d vs %d)",
			res.Makespan, schedule.Makespan(inst, plan))
	}
	longer := 0
	for v := range res.Dur {
		if res.Dur[v] > inst.Dur[v] {
			longer++
		}
	}
	if longer < inst.N()/2 {
		t.Errorf("only %d/%d durations grew under positive bias", longer, inst.N())
	}
}

func TestExecutionStaysLegal(t *testing.T) {
	// Under any noise the realized execution must respect precedence and
	// processor exclusivity (right-shift repair guarantees it).
	f := func(seed uint64) bool {
		inst, prof, plan := testInstance(t, 40, seed%8)
		res, err := Execute(inst, plan, prof, Noise{RelStdDev: 0.3, Seed: seed})
		if err != nil {
			return false
		}
		for _, e := range inst.G.Edges {
			if res.Start[e.To] < res.Start[e.From]+res.Dur[e.From] {
				return false
			}
		}
		for v := range res.Start {
			if res.Start[v] < plan.Start[v] {
				return false // repair never starts early
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestDeadlineOverrunDetected(t *testing.T) {
	// A chain with zero slack: any slowdown must blow the deadline.
	d := dag.New(3)
	for i := 0; i < 3; i++ {
		d.SetWeight(i, 10)
	}
	d.AddEdge(0, 1, 1)
	d.AddEdge(1, 2, 1)
	cluster := platform.New([]platform.ProcType{{Name: "U", Speed: 1, Idle: 0, Work: 5}}, []int{1}, 1)
	inst, err := ceg.Build(d, &ceg.Mapping{
		Proc: []int{0, 0, 0}, Order: [][]int{{0, 1, 2}}, Finish: []int64{10, 20, 30},
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	prof := power.Constant(30, 100)
	plan := core.ASAP(inst)
	res, err := Execute(inst, plan, prof, Noise{Bias: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMet {
		t.Error("50% slowdown on a zero-slack chain kept the deadline?")
	}
	if res.Makespan <= 30 {
		t.Errorf("makespan %d, want > 30", res.Makespan)
	}
	// Overrun time is still costed.
	if res.Cost < 0 {
		t.Error("negative cost")
	}
}

func TestForecastErrorShapes(t *testing.T) {
	prof := power.Constant(100, 50)
	// Zero error: identical forecast.
	same := (ForecastError{}).Forecast(prof)
	if same.Intervals[0].Budget != 50 {
		t.Error("zero-error forecast changed the budget")
	}
	// Nonzero error: deterministic per seed, budgets stay non-negative.
	prof2, err := power.Generate(power.S1, 200, 24, 0, 100, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	fe := ForecastError{Base: 0.1, Growth: 0.5, Seed: 3}
	a := fe.Forecast(prof2)
	b := fe.Forecast(prof2)
	changed := false
	for j := range a.Intervals {
		if a.Intervals[j].Budget != b.Intervals[j].Budget {
			t.Fatal("forecast not deterministic")
		}
		if a.Intervals[j].Budget < 0 {
			t.Fatal("negative forecast budget")
		}
		if a.Intervals[j].Budget != prof2.Intervals[j].Budget {
			changed = true
		}
	}
	if !changed {
		t.Error("forecast identical to actuals despite error model")
	}
	if err := a.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPlanOnForecastEvaluateOnActual(t *testing.T) {
	// End-to-end forecast study shape: planning against a noisy forecast
	// must still produce a legal execution, and with zero forecast error
	// the realized cost equals the planned cost.
	inst, actual, _ := testInstance(t, 60, 5)
	forecast := (ForecastError{Base: 0.2, Growth: 0.3, Seed: 7}).Forecast(actual)
	plan, _, err := core.Run(context.Background(), inst, power.SingleZone(forecast), core.Options{Score: core.ScoreSlackW, LocalSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(inst, plan, actual, Noise{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DeadlineMet {
		t.Error("same horizon, no runtime noise: deadline must hold")
	}
	if res.Cost != schedule.CarbonCost(inst, plan, power.SingleZone(actual)) {
		t.Error("realized cost disagrees with static evaluation under the actual profile")
	}
}

// unitEnergy is the unit-by-unit twin of Execute's energy split: at every
// unit t of the profile's horizon the platform draws its idle floor plus
// the work power of the nodes running at t, of which min(P, G) is green
// and max(P − G, 0) brown.
func unitEnergy(inst *ceg.Instance, res *Result, prof *power.Profile) (brown, green int64) {
	for t := int64(0); t < prof.T(); t++ {
		p := inst.TotalIdlePower()
		for v := range res.Start {
			if res.Start[v] <= t && t < res.Start[v]+res.Dur[v] {
				_, work := inst.ProcPower(v)
				p += work
			}
		}
		g := prof.BudgetAt(t)
		brown += max(p-g, 0)
		green += min(p, g)
	}
	return brown, green
}

// TestEnergySplitMatchesUnitTwin holds Execute's brown and green energy
// to unitEnergy on replays and noisy executions, and on a biased one
// that overruns the horizon, where the profile is extended past T
// (Profile.Clip) and the twin walks the extended profile.
func TestEnergySplitMatchesUnitTwin(t *testing.T) {
	overran := false
	for seed := uint64(0); seed < 4; seed++ {
		inst, prof, plan := testInstance(t, 40, seed)
		for _, noise := range []Noise{{}, {RelStdDev: 0.3, Seed: seed}, {RelStdDev: 0.1, Bias: 1.5, Seed: seed}} {
			res, err := Execute(inst, plan, prof, noise)
			if err != nil {
				t.Fatal(err)
			}
			eval := prof
			if res.Makespan > prof.T() {
				overran = true
				eval = prof.Clip(res.Makespan)
			}
			brown, green := unitEnergy(inst, res, eval)
			if res.BrownEnergy != brown || res.GreenEnergy != green || res.Cost != brown {
				t.Errorf("seed %d, noise %+v: brown %d, green %d, cost %d; unit by unit brown %d, green %d",
					seed, noise, res.BrownEnergy, res.GreenEnergy, res.Cost, brown, green)
			}
		}
	}
	if !overran {
		t.Error("no execution overran the horizon: the Profile.Clip path went untested")
	}
}
