package greenheft

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/ceg"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/heft"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/wfgen"
)

// Property suite for the zone-aware mapping layer: randomized DAG /
// cluster / zone grids (seeded through testing/quick) drive the zone
// policies and the two-pass search against their contracts.

// zonedGrid builds a small heterogeneous cluster split into k zones plus
// an anti-correlated per-zone supply over [0, T): zone z's green window
// covers interval z of a k-way split of the horizon, so zones are
// maximally complementary.
func zonedGrid(t testing.TB, seed uint64, k int) (*platform.Cluster, *power.ZoneSet) {
	types := platform.Table1()[:3]
	c := platform.NewZoned(types, []int{2, 2, 2}, platform.RoundRobinZones(6, k), seed)
	T := int64(6000)
	zones := make([]power.Zone, k)
	for z := 0; z < k; z++ {
		gmin, gmax := power.PlatformBounds(c.ZoneComputeIdle(z), c.ZoneComputeWork(z))
		lengths := make([]int64, k)
		budgets := make([]int64, k)
		for j := range lengths {
			lengths[j] = T / int64(k)
			budgets[j] = gmin
			if j == z {
				budgets[j] = gmax
			}
		}
		lengths[k-1] += T % int64(k)
		prof, err := power.NewProfile(lengths, budgets)
		if err != nil {
			t.Fatal(err)
		}
		zones[z] = power.Zone{Name: fmt.Sprintf("z%d", z), Profile: prof}
	}
	zs, err := power.NewZoneSet(zones...)
	if err != nil {
		t.Fatal(err)
	}
	return c, zs
}

// TestZonePoliciesValidProperty: every zone policy yields a Validate-clean
// mapping on randomized workflow / cluster / zone-count combinations.
func TestZonePoliciesValidProperty(t *testing.T) {
	f := func(seed uint64, polRaw, zoneRaw uint8) bool {
		pol := []Policy{ZoneGreen, ZoneEnergyPerWork}[int(polRaw)%2]
		k := 2 + int(zoneRaw)%2 // 2 or 3 zones
		fam := wfgen.Families()[int(seed%4)]
		d, err := wfgen.Generate(fam, 40, seed)
		if err != nil {
			return false
		}
		c, zs := zonedGrid(t, seed, k)
		r, err := Schedule(d, c, Options{Policy: pol, Zones: zs})
		if err != nil {
			t.Logf("seed %d %s: %v", seed, pol, err)
			return false
		}
		return r.Validate(d, c) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 24}); err != nil {
		t.Error(err)
	}
}

// TestZoneGreenDegeneratesToEFT pins the degenerate case: under a flat
// (constant) single-zone supply whose horizon covers every candidate
// window, the zone availability is 1 for every candidate, so ZoneGreen's
// objective collapses to the finish time and the mapping equals classic
// HEFT schedule for schedule.
func TestZoneGreenDegeneratesToEFT(t *testing.T) {
	for _, seed := range []uint64{1, 7, 23} {
		fam := wfgen.Families()[seed%4]
		d, err := wfgen.Generate(fam, 80, seed)
		if err != nil {
			t.Fatal(err)
		}
		c := platform.Small(seed)
		flat := power.SingleZone(power.Constant(1<<40, 500))
		zg, err := Schedule(d, c, Options{Policy: ZoneGreen, Zones: flat})
		if err != nil {
			t.Fatal(err)
		}
		h, err := heft.Schedule(d, c)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < d.N(); v++ {
			if zg.Proc[v] != h.Proc[v] || zg.Start[v] != h.Start[v] || zg.Finish[v] != h.Finish[v] {
				t.Fatalf("seed %d: ZoneGreen diverges from HEFT at task %d (proc %d/%d start %d/%d)",
					seed, v, zg.Proc[v], h.Proc[v], zg.Start[v], h.Start[v])
			}
		}
		if zg.Makespan != h.Makespan {
			t.Fatalf("seed %d: makespan %d != HEFT %d", seed, zg.Makespan, h.Makespan)
		}
		// Same pin for the zone energy policy against its zone-blind base.
		ze, err := Schedule(d, c, Options{Policy: ZoneEnergyPerWork, Zones: flat})
		if err != nil {
			t.Fatal(err)
		}
		ep, err := Schedule(d, c, Options{Policy: EnergyPerWork})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < d.N(); v++ {
			if ze.Proc[v] != ep.Proc[v] || ze.Start[v] != ep.Start[v] {
				t.Fatalf("seed %d: ZoneEnergyPerWork diverges from EnergyPerWork at task %d", seed, v)
			}
		}
	}
}

// TestMapAndSolveNeverWorseProperty: the two-pass search must never
// return a plan with higher carbon than fixed-mapping scheduling of the
// same instance under the same supply (the EFT candidate competes, so
// the minimum cannot exceed it).
func TestMapAndSolveNeverWorseProperty(t *testing.T) {
	opt := core.Options{Score: core.ScorePressureW, Refined: true}
	f := func(seed uint64, zoneRaw uint8) bool {
		k := 2 + int(zoneRaw)%2
		fam := wfgen.Families()[int(seed%4)]
		d, err := wfgen.Generate(fam, 30, seed)
		if err != nil {
			return false
		}
		c, zs := zonedGrid(t, seed, k)
		h, err := heft.Schedule(d, c)
		if err != nil {
			return false
		}
		fixed, err := ceg.Build(d, ceg.FromHEFT(h.Proc, h.Order, h.Finish), c)
		if err != nil {
			return false
		}
		// Align the horizon so the fixed mapping is feasible.
		T := 3 * core.ASAPMakespan(fixed)
		azs := zs.Clip(T)
		_, st, err := core.Run(context.Background(), fixed, azs, opt)
		if err != nil {
			t.Logf("seed %d: fixed: %v", seed, err)
			return false
		}
		ms, err := MapAndSolve(context.Background(), d, c, azs, MapSolveOptions{Sched: opt})
		if err != nil {
			t.Logf("seed %d: map-search: %v", seed, err)
			return false
		}
		if ms.Cost > st.Cost {
			t.Logf("seed %d: map-search cost %d > fixed %d (winner %s)", seed, ms.Cost, st.Cost, ms.Policy)
			return false
		}
		if err := schedule.Validate(ms.Inst, ms.Schedule, azs.T()); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 16}); err != nil {
		t.Error(err)
	}
}

// TestMapAndSolveAuditTrail: every candidate policy appears exactly once
// in the outcomes, the winner matches the minimum feasible cost, and an
// explicit candidate list restricts the search.
func TestMapAndSolveAuditTrail(t *testing.T) {
	d, err := wfgen.Generate(wfgen.Bacass, 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	c, zs := zonedGrid(t, 11, 2)
	h, err := heft.Schedule(d, c)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := ceg.Build(d, ceg.FromHEFT(h.Proc, h.Order, h.Finish), c)
	if err != nil {
		t.Fatal(err)
	}
	azs := zs.Clip(3 * core.ASAPMakespan(fixed))
	opt := core.Options{Score: core.ScorePressureW, Refined: true, LocalSearch: true}
	ms, err := MapAndSolve(context.Background(), d, c, azs, MapSolveOptions{Sched: opt})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Outcomes) != len(AllPolicies()) {
		t.Fatalf("%d outcomes for %d policies", len(ms.Outcomes), len(AllPolicies()))
	}
	min := int64(-1)
	for i, out := range ms.Outcomes {
		if out.Policy != AllPolicies()[i] {
			t.Errorf("outcome %d is %s, want %s", i, out.Policy, AllPolicies()[i])
		}
		if out.Err == "" && (min < 0 || out.Cost < min) {
			min = out.Cost
		}
	}
	if ms.Cost != min {
		t.Errorf("winner cost %d != minimum feasible outcome %d", ms.Cost, min)
	}
	only, err := MapAndSolve(context.Background(), d, c, azs, MapSolveOptions{
		Policies: []Policy{EFT, ZoneGreen}, Sched: opt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(only.Outcomes) != 2 {
		t.Fatalf("restricted search ran %d candidates, want 2", len(only.Outcomes))
	}
}

// TestZonePolicyInputValidation: zone policies demand a supply matching
// the cluster's zone layout, and unknown policies are rejected.
func TestZonePolicyInputValidation(t *testing.T) {
	d, err := wfgen.Generate(wfgen.Eager, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, zs := zonedGrid(t, 3, 3)
	if _, err := Schedule(d, c, Options{Policy: ZoneGreen}); err == nil {
		t.Error("zone policy without a supply accepted")
	}
	two := &power.ZoneSet{Zones: zs.Zones[:2]}
	if _, err := Schedule(d, c, Options{Policy: ZoneGreen, Zones: two}); err == nil {
		t.Error("2-zone supply accepted on a 3-zone cluster")
	}
	if _, err := Schedule(d, c, Options{Policy: Policy(99)}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := ParsePolicy("zonegreen"); err != nil {
		t.Error(err)
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("unknown policy name parsed")
	}
	for _, p := range AllPolicies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
}

// TestZoneGreenPrefersGreenZone: a single task with horizon-wide slack
// and a two-zone cluster of identical processors — one zone green
// throughout, one brown throughout — must map to the green zone under
// ZoneGreen (EFT is indifferent: it keeps the first processor).
func TestZoneGreenPrefersGreenZone(t *testing.T) {
	d := wfgenSingleTask(64)
	types := []platform.ProcType{{Name: "A", Speed: 8, Idle: 10, Work: 20}}
	c := platform.NewZoned(types, []int{2}, []int{0, 1}, 1)
	green := power.Constant(1000, 200)
	brown := power.Constant(1000, 0)
	zs, err := power.NewZoneSet(
		power.Zone{Name: "brown", Profile: brown},
		power.Zone{Name: "green", Profile: green},
	)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Schedule(d, c, Options{Policy: ZoneGreen, Zones: zs})
	if err != nil {
		t.Fatal(err)
	}
	if zone := c.ZoneOf(r.Proc[0]); zone != 1 {
		t.Errorf("ZoneGreen mapped the task to zone %d, want the green zone 1", zone)
	}
	eft, err := Schedule(d, c, Options{Policy: EFT})
	if err != nil {
		t.Fatal(err)
	}
	if zone := c.ZoneOf(eft.Proc[0]); zone != 0 {
		t.Errorf("EFT mapped the task to zone %d, want the (first) brown zone 0", zone)
	}
}

func wfgenSingleTask(weight int64) *dag.DAG {
	d := dag.New(1)
	d.SetWeight(0, weight)
	return d
}
