package exact

import (
	"context"
	"testing"

	"repro/internal/power"
	"repro/internal/schedule"
)

// yes2 is a satisfiable 3-Partition instance with n = 2, B = 20:
// {6, 6, 8} and {6, 7, 7}. All elements are in (5, 10).
func yes2() *ThreePartition {
	return &ThreePartition{X: []int64{6, 6, 8, 6, 7, 7}, B: 20}
}

// no2 is an unsatisfiable instance with n = 2, B = 20: {6, 6, 6, 6, 7, 9}.
// The sum is 40 and every element is in (5, 10), but no triplet sums to 20
// (6+6+6=18, 6+6+7=19, 6+6+9=21, 6+7+9=22).
func no2() *ThreePartition {
	return &ThreePartition{X: []int64{6, 6, 6, 6, 7, 9}, B: 20}
}

func TestValidate(t *testing.T) {
	if err := yes2().Validate(); err != nil {
		t.Errorf("yes2 rejected: %v", err)
	}
	if err := no2().Validate(); err != nil {
		t.Errorf("no2 rejected: %v", err)
	}
	bad := &ThreePartition{X: []int64{1, 2, 3}, B: 6}
	if err := bad.Validate(); err == nil {
		t.Error("element bounds violation not caught (1 <= 6/4)")
	}
	short := &ThreePartition{X: []int64{6, 6}, B: 20}
	if err := short.Validate(); err == nil {
		t.Error("non-multiple-of-3 size not caught")
	}
	badSum := &ThreePartition{X: []int64{6, 6, 6, 6, 6, 6}, B: 20}
	if err := badSum.Validate(); err == nil {
		t.Error("sum mismatch not caught")
	}
}

func TestSolveDirect(t *testing.T) {
	p := yes2()
	triplets, ok := p.SolveDirect()
	if !ok {
		t.Fatal("yes2 not solved")
	}
	if len(triplets) != 2 {
		t.Fatalf("got %d triplets, want 2", len(triplets))
	}
	seen := map[int]bool{}
	for _, tr := range triplets {
		var sum int64
		for _, i := range tr {
			if seen[i] {
				t.Fatalf("element %d reused", i)
			}
			seen[i] = true
			sum += p.X[i]
		}
		if sum != p.B {
			t.Errorf("triplet %v sums to %d, want %d", tr, sum, p.B)
		}
	}
	if _, ok := no2().SolveDirect(); ok {
		t.Error("no2 incorrectly declared satisfiable")
	}
}

func TestBuildShape(t *testing.T) {
	p := yes2()
	r, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	inst, prof := r.Instance, r.Profile
	if inst.N() != 6 {
		t.Errorf("N = %d, want 6 (no communications)", inst.N())
	}
	if prof.J() != 3 {
		t.Errorf("J = %d, want 2n−1 = 3", prof.J())
	}
	if prof.T() != 2*20+1 {
		t.Errorf("T = %d, want nB+n−1 = 41", prof.T())
	}
	if inst.TotalIdlePower() != 0 {
		t.Errorf("idle power = %d, want 0 (uniform processors)", inst.TotalIdlePower())
	}
	// Interval pattern: B/1, 1/0, B/1.
	ivs := prof.Intervals
	if ivs[0].Budget != 1 || ivs[1].Budget != 0 || ivs[2].Budget != 1 {
		t.Errorf("budgets = %d,%d,%d want 1,0,1", ivs[0].Budget, ivs[1].Budget, ivs[2].Budget)
	}
	if ivs[0].Len() != 20 || ivs[1].Len() != 1 {
		t.Errorf("lengths wrong: %d, %d", ivs[0].Len(), ivs[1].Len())
	}
	if r.Bound != 0 {
		t.Errorf("bound = %d, want 0", r.Bound)
	}
}

func TestForwardDirection(t *testing.T) {
	// A witness partition yields a zero-cost schedule.
	p := yes2()
	r, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	triplets, ok := p.SolveDirect()
	if !ok {
		t.Fatal("witness missing")
	}
	starts, err := r.ScheduleFromPartition(p, triplets)
	if err != nil {
		t.Fatal(err)
	}
	s := &schedule.Schedule{Start: starts}
	if err := schedule.Validate(r.Instance, s, r.Profile.T()); err != nil {
		t.Fatal(err)
	}
	if cost := schedule.CarbonCost(r.Instance, s, power.SingleZone(r.Profile)); cost != 0 {
		t.Errorf("witness schedule cost = %d, want 0", cost)
	}
}

func TestReductionEquivalenceYes(t *testing.T) {
	r, err := Build(yes2())
	if err != nil {
		t.Fatal(err)
	}
	_, cost, err := Solve(context.Background(), r.Instance, power.SingleZone(r.Profile), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Errorf("optimal cost = %d, want 0 for a yes-instance", cost)
	}
}

func TestReductionEquivalenceNo(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive no-instance search in -short mode")
	}
	r, err := Build(no2())
	if err != nil {
		t.Fatal(err)
	}
	_, cost, err := Solve(context.Background(), r.Instance, power.SingleZone(r.Profile), Options{MaxNodes: 40_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if cost == 0 {
		t.Error("optimal cost 0 for a no-instance: reduction broken")
	}
}

func TestScheduleFromPartitionRejectsBadWitness(t *testing.T) {
	p := yes2()
	r, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	// {0,1,2} = 6+6+8 and {3,4,5} = 6+7+7 are both 20: a valid witness.
	if _, err := r.ScheduleFromPartition(p, [][3]int{{0, 1, 2}, {3, 4, 5}}); err != nil {
		t.Errorf("valid witness rejected: %v", err)
	}
	if _, err := r.ScheduleFromPartition(p, [][3]int{{0, 1, 3}, {2, 4, 5}}); err == nil {
		t.Error("triplet summing to 18 accepted")
	}
	if _, err := r.ScheduleFromPartition(p, [][3]int{{0, 0, 2}, {3, 4, 5}}); err == nil {
		t.Error("duplicate element accepted")
	}
	if _, err := r.ScheduleFromPartition(p, [][3]int{{0, 1, 2}}); err == nil {
		t.Error("wrong triplet count accepted")
	}
}

func BenchmarkReductionYes(b *testing.B) {
	p := yes2()
	for i := 0; i < b.N; i++ {
		r, err := Build(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, cost, err := Solve(context.Background(), r.Instance, power.SingleZone(r.Profile), Options{}); err != nil || cost != 0 {
			b.Fatalf("cost %d err %v", cost, err)
		}
	}
}
