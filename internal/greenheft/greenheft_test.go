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
	// A single task, weight 96, on a cluster whose fast type draws ten
	// times the power of the slow one: EFT picks Fast (finish 48), while
	// LowPower must pick a processor minimizing finish × (idle + work),
	// on an empty cluster ExecTime × draw — Slow, 96 × 2 against 48 × 20.
	d := dag.New(1)
	d.SetWeight(0, 96)
	c := platform.New([]platform.ProcType{
		{Name: "Slow", Speed: 1, Idle: 1, Work: 1},
		{Name: "Fast", Speed: 2, Idle: 10, Work: 10},
	}, []int{2, 2}, 3)
	eft, err := Schedule(d, c, Options{Policy: EFT})
	if err != nil {
		t.Fatal(err)
	}
	low, err := Schedule(d, c, Options{Policy: LowPower})
	if err != nil {
		t.Fatal(err)
	}
	score := func(p int) int64 {
		pt := c.Proc(p).Type
		return c.ExecTime(96, p) * (pt.Idle + pt.Work)
	}
	best := int64(-1)
	for p := 0; p < c.NumCompute(); p++ {
		if sc := score(p); best < 0 || sc < best {
			best = sc
		}
	}
	if name := c.Proc(eft.Proc[0]).Type.Name; name != "Fast" {
		t.Errorf("EFT picked %s, want Fast", name)
	}
	if got := score(low.Proc[0]); got != best {
		t.Errorf("LowPower picked %s with finish × draw %d, want the minimum %d",
			c.Proc(low.Proc[0]).Type.Name, got, best)
	}
	if name := c.Proc(low.Proc[0]).Type.Name; name != "Slow" {
		t.Errorf("LowPower picked %s, want Slow", name)
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
