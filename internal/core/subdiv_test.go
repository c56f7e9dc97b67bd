package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ceg"
	"repro/internal/heft"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/schedule"
	"repro/internal/wfgen"
)

// naiveRefinedPoints is an independent, brute-force reimplementation of
// the Section 5.2 subdivision used as a test oracle: enumerate every block
// of at most k consecutive tasks on every processor, align it to every
// boundary of the processor's zone, and collect the implied start of every
// block member.
func naiveRefinedPoints(inst *ceg.Instance, zs *power.ZoneSet, k int) [][]int64 {
	T := zs.T()
	sets := make([]map[int64]bool, zs.NumZones())
	for z := range sets {
		sets[z] = map[int64]bool{}
	}
	for _, tasks := range inst.Order {
		z := schedule.NodeZone(inst, zs, tasks[0])
		set := sets[z]
		for i := 0; i < len(tasks); i++ {
			for j := i; j < len(tasks) && j-i+1 <= k; j++ {
				block := tasks[i : j+1]
				var total int64
				for _, u := range block {
					total += inst.Dur[u]
				}
				for _, e := range zs.Profile(z).Boundaries() {
					// Start-aligned.
					at := e
					for _, u := range block {
						if at > 0 && at < T && at+inst.Dur[u] <= T {
							set[at] = true
						}
						at += inst.Dur[u]
					}
					// End-aligned.
					at = e - total
					for _, u := range block {
						if at > 0 && at < T {
							set[at] = true
						}
						at += inst.Dur[u]
					}
				}
			}
		}
	}
	out := make([][]int64, len(sets))
	for z, set := range sets {
		for p := range set {
			out[z] = append(out[z], p)
		}
		slices.Sort(out[z])
	}
	return out
}

// zonedInstance plans a generated workflow, its weights multiplied by
// scale, on the small cluster split into the given number of zones and
// draws one profile per zone over factor × the ASAP makespan.
func zonedInstance(tb testing.TB, fam wfgen.Family, n int, seed uint64, zones int, factor float64, scale int64) (*ceg.Instance, *power.ZoneSet) {
	tb.Helper()
	d, err := wfgen.Generate(fam, n, seed)
	if err != nil {
		tb.Fatal(err)
	}
	for v := range d.Tasks {
		d.SetWeight(v, d.Tasks[v].Weight*scale)
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
	T := int64(float64(ASAPMakespan(inst)) * factor)
	specs := make([]power.ZoneSpec, inst.NumZones())
	for z := range specs {
		gmin, gmax := power.PlatformBounds(inst.ZoneIdlePower(z), cluster.ZoneComputeWork(z))
		specs[z] = power.ZoneSpec{Name: fmt.Sprint("z", z), Scenario: power.Scenarios()[(int(seed)+z)%4], Gmin: gmin, Gmax: gmax}
	}
	zs, err := power.GenerateZones(specs, T, 24, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return inst, zs
}

// TestRefinedPointsMatchNaiveProperty compares the offsets × boundaries
// enumeration with the block enumeration point for point. The horizon
// varies against the durations on purpose: a deadline factor of 30 makes
// T far larger than the span the offsets can take (the offset tables must
// follow the span, not T), scaled weights push the span past
// offsetSetMaxSlots (colliding offsets) and T past the 1<<22 where the
// enumeration used to change representation, and a large tight instance
// saturates: every time unit of (0, T) is a point.
func TestRefinedPointsMatchNaiveProperty(t *testing.T) {
	check := func(t *testing.T, inst *ceg.Instance, zs *power.ZoneSet, k int) [][]int64 {
		t.Helper()
		sets, slow := refinedPoints(inst, zs, k), naiveRefinedPoints(inst, zs, k)
		fast := make([][]int64, len(sets))
		for z := range slow {
			if fast[z] = sets[z].sorted(); !slices.Equal(fast[z], slow[z]) {
				t.Fatalf("k=%d zone %d: %d points, naive has %d", k, z, len(fast[z]), len(slow[z]))
			}
		}
		return fast
	}
	seed := uint64(0)
	for _, zones := range []int{1, 2, 3} {
		for _, factor := range []float64{1.0, 2, 30} {
			for k := 1; k <= 4; k++ {
				seed++
				r := rng.New(seed)
				inst, zs := zonedInstance(t, wfgen.Families()[r.Intn(4)], 20+r.Intn(30), seed, zones, factor, 1)
				check(t, inst, zs, k)
			}
		}
	}
	t.Run("saturating", func(t *testing.T) {
		inst, zs := zonedInstance(t, wfgen.Atacseq, 400, 7, 3, 2, 1)
		for z, pts := range check(t, inst, zs, 3) {
			if int64(len(pts)) != zs.T()-1 {
				t.Errorf("zone %d: %d points over T=%d, want every unit of (0, T)", z, len(pts), zs.T())
			}
		}
	})
	t.Run("long horizon", func(t *testing.T) {
		inst, zs := zonedInstance(t, wfgen.Bacass, 40, 11, 2, 3, 100000)
		if zs.T() <= 1<<22 || 3*slices.Max(inst.Dur) < offsetSetMaxSlots {
			t.Fatalf("T=%d, max duration %d: instance too small for the case", zs.T(), slices.Max(inst.Dur))
		}
		check(t, inst, zs, 3)
	})
}

// BenchmarkRefinedPoints measures the subdivision on 3 zones of 24
// intervals at two sizes: 1000 tasks at twice the makespan, the shape of
// the repo benchmark's solve_cold_1k (the result saturates), and 60 tasks
// at deadline factor 30, the horizon of an admit_churn_60 submit (T
// dwarfs the offsets' span). That workload itself runs 2 zones over
// residual supplies of about 150 intervals a zone, which cross the same
// offsets with six times the boundaries.
func BenchmarkRefinedPoints(b *testing.B) {
	for _, c := range []struct {
		name   string
		n      int
		factor float64
	}{{"1000x3zones", 1000, 2}, {"60xDF30", 60, 30}} {
		b.Run(c.name, func(b *testing.B) {
			inst, zs := zonedInstance(b, wfgen.Atacseq, c.n, 42, 3, c.factor, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				refinedPoints(inst, zs, DefaultK)
			}
		})
	}
}

func TestRefinedPointsInvalidK(t *testing.T) {
	inst := uniChain(t, []int64{2, 3}, 1, 1)
	prof := power.Constant(20, 5)
	// k < 1 is clamped to 1, not rejected.
	pts := refinedPoints(inst, power.SingleZone(prof), 0)[0].sorted()
	if len(pts) == 0 {
		t.Error("k=0 (clamped to 1) should still produce points")
	}
}
