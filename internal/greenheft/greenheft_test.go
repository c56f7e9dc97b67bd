package greenheft

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

func TestEFTPolicyMatchesHEFT(t *testing.T) {
	// With Policy == EFT the mapping must be identical to classic HEFT.
	for _, n := range []int{30, 120} {
		d, err := wfgen.Generate(wfgen.Atacseq, n, 5)
		if err != nil {
			t.Fatal(err)
		}
		c := platform.Small(5)
		h, err := heft.Schedule(d, c)
		if err != nil {
			t.Fatal(err)
		}
		g, err := Schedule(d, c, Options{Policy: EFT})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			if h.Proc[v] != g.Proc[v] || h.Start[v] != g.Start[v] {
				t.Fatalf("n=%d: EFT policy diverges from HEFT at task %d", n, v)
			}
		}
		if h.Makespan != g.Makespan {
			t.Fatalf("makespan %d != %d", g.Makespan, h.Makespan)
		}
	}
}

func TestAllPoliciesProduceValidMappings(t *testing.T) {
	d, err := wfgen.Generate(wfgen.Eager, 150, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := platform.Small(7)
	for _, p := range Policies() {
		r, err := Schedule(d, c, Options{Policy: p})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if err := r.Validate(d, c); err != nil {
			t.Errorf("%v: %v", p, err)
		}
	}
}

func TestLowPowerPrefersCheaperProcessors(t *testing.T) {
	// Single task, weight 96: EFT picks PT6 (finish 3, power 300);
	// LowPower with alpha=2 minimizes finish × power² and picks PT1
	// (24 × 50² = 60,000 beats 3 × 300² = 270,000).
	d := dag.New(1)
	d.SetWeight(0, 96)
	c := platform.Small(3)
	eft, err := Schedule(d, c, Options{Policy: EFT})
	if err != nil {
		t.Fatal(err)
	}
	low, err := Schedule(d, c, Options{Policy: LowPower, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	powerOf := func(r *heft.Result) int64 {
		pt := c.Proc(r.Proc[0]).Type
		return pt.Idle + pt.Work
	}
	if c.Proc(eft.Proc[0]).Type.Name != "PT6" {
		t.Errorf("EFT picked %s, want PT6", c.Proc(eft.Proc[0]).Type.Name)
	}
	if c.Proc(low.Proc[0]).Type.Name != "PT1" {
		t.Errorf("LowPower(alpha=2) picked %s, want PT1", c.Proc(low.Proc[0]).Type.Name)
	}
	if powerOf(low) >= powerOf(eft) {
		t.Errorf("LowPower draw %d not below EFT draw %d", powerOf(low), powerOf(eft))
	}
}

func TestEnergyPolicyMinimizesTaskEnergy(t *testing.T) {
	// A single task: EnergyPerWork must pick the proc minimizing
	// dur × (idle+work).
	d := dag.New(1)
	d.SetWeight(0, 64)
	c := platform.Small(1)
	r, err := Schedule(d, c, Options{Policy: EnergyPerWork})
	if err != nil {
		t.Fatal(err)
	}
	got := r.Proc[0]
	bestEnergy := int64(-1)
	for p := 0; p < c.NumCompute(); p++ {
		pt := c.Proc(p).Type
		e := c.ExecTime(64, p) * (pt.Idle + pt.Work)
		if bestEnergy < 0 || e < bestEnergy {
			bestEnergy = e
		}
	}
	pt := c.Proc(got).Type
	if c.ExecTime(64, got)*(pt.Idle+pt.Work) != bestEnergy {
		t.Errorf("EnergyPerWork picked proc %d with energy %d, best is %d",
			got, c.ExecTime(64, got)*(pt.Idle+pt.Work), bestEnergy)
	}
}

func TestTwoPassPipeline(t *testing.T) {
	// The full future-work pipeline: carbon-aware mapping, then CaWoSched.
	d, err := wfgen.Generate(wfgen.Methylseq, 120, 9)
	if err != nil {
		t.Fatal(err)
	}
	c := platform.Small(9)
	for _, p := range Policies() {
		m, err := Schedule(d, c, Options{Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		inst, err := ceg.Build(d, ceg.FromHEFT(m.Proc, m.Order, m.Finish), platform.Small(9))
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		D := core.ASAPMakespan(inst)
		gmin, gmax := power.PlatformBounds(inst.TotalIdlePower(), inst.Cluster.ComputeWork())
		prof, err := power.Generate(power.S1, 2*D, 24, gmin, gmax, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		s, _, err := core.Run(context.Background(), inst, power.SingleZone(prof), core.Options{Score: core.ScorePressureW, Refined: true, LocalSearch: true})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if err := schedule.Validate(inst, s, prof.T()); err != nil {
			t.Errorf("%v: %v", p, err)
		}
	}
}

func TestMakespanOrdering(t *testing.T) {
	// Greener mappings may not beat EFT's makespan.
	d, err := wfgen.Generate(wfgen.Atacseq, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := platform.Small(4)
	eft, err := Schedule(d, c, Options{Policy: EFT})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{LowPower, EnergyPerWork} {
		r, err := Schedule(d, c, Options{Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		if r.Makespan < eft.Makespan {
			t.Errorf("%v makespan %d beats EFT %d: EFT should be the fastest policy",
				p, r.Makespan, eft.Makespan)
		}
	}
}

func TestPow(t *testing.T) {
	cases := []struct{ x, a, want float64 }{
		{3, 0, 1}, {3, 1, 3}, {3, 2, 9}, {2, 3, 8},
	}
	for _, c := range cases {
		if got := pow(c.x, c.a); got != c.want {
			t.Errorf("pow(%v, %v) = %v, want %v", c.x, c.a, got, c.want)
		}
	}
	// Fractional alpha interpolates between integer powers.
	if got := pow(4, 1.5); got <= 4 || got >= 16 {
		t.Errorf("pow(4, 1.5) = %v, want within (4, 16)", got)
	}
}

func TestEmptyAndInvalidInputs(t *testing.T) {
	c := platform.Small(1)
	if _, err := Schedule(dag.New(0), c, Options{}); err == nil {
		t.Error("empty workflow accepted")
	}
	empty := platform.New(nil, nil, 1)
	if _, err := Schedule(dag.New(1), empty, Options{}); err == nil {
		t.Error("empty cluster accepted")
	}
}

func TestValidMappingProperty(t *testing.T) {
	f := func(seed uint64, polRaw uint8) bool {
		pol := Policies()[int(polRaw%3)]
		fam := wfgen.Families()[int(seed%4)]
		d, err := wfgen.Generate(fam, 60, seed)
		if err != nil {
			return false
		}
		c := platform.Small(seed)
		r, err := Schedule(d, c, Options{Policy: pol})
		if err != nil {
			return false
		}
		return r.Validate(d, c) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
