package schedule

import (
	"testing"
	"testing/quick"

	"repro/internal/ceg"
	"repro/internal/dag"
	"repro/internal/heft"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/wfgen"
)

// uniCluster is a single processor with the given powers.
func uniCluster(idle, work int64) *platform.Cluster {
	return platform.New([]platform.ProcType{{Name: "U", Speed: 1, Idle: idle, Work: work}}, []int{1}, 1)
}

// chainInstance builds an n-task chain on one processor, unit weights.
func chainInstance(t testing.TB, n int, weights []int64, idle, work int64) *ceg.Instance {
	t.Helper()
	d := dag.New(n)
	order := make([]int, n)
	finish := make([]int64, n)
	var cum int64
	for i := 0; i < n; i++ {
		if weights != nil {
			d.SetWeight(i, weights[i])
		}
		if i > 0 {
			d.AddEdge(i-1, i, 1)
		}
		order[i] = i
		cum += d.Tasks[i].Weight
		finish[i] = cum
	}
	inst, err := ceg.Build(d, &ceg.Mapping{Proc: make([]int, n), Order: [][]int{order}, Finish: finish}, uniCluster(idle, work))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// oneZoneTimeline builds the timeline of a schedule under a cluster-wide
// profile: the lone timeline of the one-zone set.
func oneZoneTimeline(inst *ceg.Instance, s *Schedule, prof *power.Profile) *Timeline {
	return NewZoneTimelines(inst, s, power.SingleZone(prof)).Zone(0)
}

// randomHEFTInstance builds a workflow instance with a HEFT mapping on the
// small cluster and a random profile.
func randomHEFTInstance(t testing.TB, n int, seed uint64) (*ceg.Instance, *power.Profile, *Schedule) {
	t.Helper()
	fam := wfgen.Families()[int(seed%4)]
	d, err := wfgen.Generate(fam, n, seed)
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
	// ASAP-like schedule straight from an EST pass over Gc.
	s := asap(inst)
	T := Makespan(inst, s) * 2
	gmin, gmax := power.PlatformBounds(inst.TotalIdlePower(), cluster.ComputeWork())
	prof, err := power.Generate(power.S1, T, 24, gmin, gmax, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return inst, prof, s
}

// asap computes earliest start times over Gc (test-local helper; the real
// one lives in internal/core).
func asap(inst *ceg.Instance) *Schedule {
	order, err := inst.G.TopoOrder()
	if err != nil {
		panic(err)
	}
	s := New(inst.N())
	for _, v := range order {
		var start int64
		for _, ei := range inst.G.InEdges(v) {
			e := inst.G.Edges[ei]
			if f := s.Start[e.From] + inst.Dur[e.From]; f > start {
				start = f
			}
		}
		s.Start[v] = start
	}
	return s
}

func TestValidateAcceptsASAP(t *testing.T) {
	inst, prof, s := randomHEFTInstance(t, 60, 3)
	if err := Validate(inst, s, prof.T()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	inst := chainInstance(t, 3, []int64{2, 2, 2}, 1, 1)
	s := asap(inst) // starts 0, 2, 4
	if err := Validate(inst, s, 6); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	// Deadline violation.
	if err := Validate(inst, s, 5); err == nil {
		t.Error("deadline violation not caught")
	}
	// Negative start.
	bad := s.Clone()
	bad.Start[0] = -1
	if err := Validate(inst, bad, 10); err == nil {
		t.Error("negative start not caught")
	}
	// Precedence violation.
	bad = s.Clone()
	bad.Start[1] = 1
	if err := Validate(inst, bad, 10); err == nil {
		t.Error("precedence violation not caught")
	}
	// Wrong length.
	if err := Validate(inst, &Schedule{Start: []int64{0}}, 10); err == nil {
		t.Error("wrong length not caught")
	}
}

func TestMakespan(t *testing.T) {
	inst := chainInstance(t, 3, []int64{2, 3, 4}, 1, 1)
	s := asap(inst)
	if got := Makespan(inst, s); got != 9 {
		t.Errorf("Makespan = %d, want 9", got)
	}
}

func TestCarbonCostHandComputed(t *testing.T) {
	// One processor (idle 2, work 3), one task of length 2 at t=0.
	// Profile: [0,2) budget 5, [2,4) budget 1.
	inst := chainInstance(t, 1, []int64{2}, 2, 3)
	prof, err := power.NewProfile([]int64{2, 2}, []int64{5, 1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(1)
	// Active in [0,2): power 5, budget 5 → 0. Idle in [2,4): power 2,
	// budget 1 → 1 per unit × 2 = 2.
	if got := CarbonCost(inst, s, power.SingleZone(prof)); got != 2 {
		t.Errorf("CarbonCost = %d, want 2", got)
	}
	// Move task to [2,4): active power 5 vs budget 1 → 4×2 = 8; idle
	// [0,2): 2 vs 5 → 0. Total 8.
	s.Start[0] = 2
	if got := CarbonCost(inst, s, power.SingleZone(prof)); got != 8 {
		t.Errorf("CarbonCost moved = %d, want 8", got)
	}
}

func TestCarbonCostZeroWhenGreen(t *testing.T) {
	inst := chainInstance(t, 2, []int64{2, 2}, 1, 1)
	prof := power.Constant(8, 100)
	s := asap(inst)
	if got := CarbonCost(inst, s, power.SingleZone(prof)); got != 0 {
		t.Errorf("CarbonCost = %d, want 0 under abundant green power", got)
	}
}

func TestCarbonCostMatchesBruteForce(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		inst, prof, s := randomHEFTInstance(t, 40, seed)
		fast := CarbonCost(inst, s, power.SingleZone(prof))
		slow := CarbonCostBrute(inst, s, power.SingleZone(prof))
		if fast != slow {
			t.Errorf("seed %d: sweep cost %d != brute cost %d", seed, fast, slow)
		}
	}
}

func TestCarbonCostMatchesBruteForceProperty(t *testing.T) {
	// Random small instances with random (valid) shifted schedules.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(6)
		weights := make([]int64, n)
		for i := range weights {
			weights[i] = r.IntRange(1, 4)
		}
		inst := chainInstanceQuick(n, weights, r.IntRange(0, 3), r.IntRange(1, 5))
		s := asap(inst)
		T := Makespan(inst, s) + r.IntRange(0, 20)
		// Random right-shifts, last task first, keeping feasibility.
		for v := n - 1; v >= 0; v-- {
			limit := T
			if v < n-1 {
				limit = s.Start[v+1]
			}
			slack := limit - (s.Start[v] + inst.Dur[v])
			if slack > 0 {
				s.Start[v] += r.Int63n(slack + 1)
			}
		}
		if Validate(inst, s, T) != nil {
			return false
		}
		prof, err := power.Generate(power.Scenarios()[r.Intn(4)], T, 4, 0, 10, r)
		if err != nil {
			return false
		}
		return CarbonCost(inst, s, power.SingleZone(prof)) == CarbonCostBrute(inst, s, power.SingleZone(prof))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// chainInstanceQuick is chainInstance without the testing.TB plumbing.
func chainInstanceQuick(n int, weights []int64, idle, work int64) *ceg.Instance {
	d := dag.New(n)
	order := make([]int, n)
	finish := make([]int64, n)
	var cum int64
	for i := 0; i < n; i++ {
		d.SetWeight(i, weights[i])
		if i > 0 {
			d.AddEdge(i-1, i, 1)
		}
		order[i] = i
		cum += weights[i]
		finish[i] = cum
	}
	inst, err := ceg.Build(d, &ceg.Mapping{Proc: make([]int, n), Order: [][]int{order}, Finish: finish}, uniCluster(idle, work))
	if err != nil {
		panic(err)
	}
	return inst
}

func TestGreenFloorCost(t *testing.T) {
	inst := chainInstance(t, 1, []int64{1}, 5, 1)
	prof, err := power.NewProfile([]int64{3, 3}, []int64{2, 10})
	if err != nil {
		t.Fatal(err)
	}
	// Idle 5: first interval over by 3 ×3 = 9; second 0.
	if got := GreenFloorCost(inst, power.SingleZone(prof)); got != 9 {
		t.Errorf("GreenFloorCost = %d, want 9", got)
	}
	s := New(1)
	if c := CarbonCost(inst, s, power.SingleZone(prof)); c < 9 {
		t.Errorf("cost %d below green floor 9", c)
	}
}

func TestScheduleClone(t *testing.T) {
	s := New(3)
	c := s.Clone()
	c.Start[0] = 7
	if s.Start[0] != 0 {
		t.Error("Clone shares storage")
	}
}

func TestTimelineTotalMatchesCarbonCost(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		inst, prof, s := randomHEFTInstance(t, 50, seed)
		tl := oneZoneTimeline(inst, s, prof)
		if got, want := drawCost(tl), CarbonCost(inst, s, power.SingleZone(prof)); got != want {
			t.Errorf("seed %d: timeline cost %d != sweep cost %d", seed, got, want)
		}
	}
}

func TestTimelineMoveGainMatchesRecompute(t *testing.T) {
	inst, prof, s := randomHEFTInstance(t, 40, 2)
	tl := oneZoneTimeline(inst, s, prof)
	base := CarbonCost(inst, s, power.SingleZone(prof))
	r := rng.New(77)
	for trial := 0; trial < 200; trial++ {
		v := r.Intn(inst.N())
		_, work := inst.ProcPower(v)
		old := s.Start[v]
		delta := r.IntRange(-10, 10)
		newStart := old + delta
		if newStart < 0 || newStart+inst.Dur[v] > prof.T() {
			continue
		}
		gain := tl.MoveGain(old, newStart, inst.Dur[v], work)
		// Recompute from scratch (ignoring feasibility: cost is defined
		// for any placement).
		mod := s.Clone()
		mod.Start[v] = newStart
		want := base - CarbonCost(inst, mod, power.SingleZone(prof))
		if gain != want {
			t.Fatalf("trial %d: MoveGain = %d, recompute = %d", trial, gain, want)
		}
	}
}

func TestTimelineApplyMove(t *testing.T) {
	inst, prof, s := randomHEFTInstance(t, 30, 1)
	tl := oneZoneTimeline(inst, s, prof)
	v := 5
	_, work := inst.ProcPower(v)
	old := s.Start[v]
	newStart := old + 3
	tl.ApplyMove(old, newStart, inst.Dur[v], work)
	s.Start[v] = newStart
	if got, want := drawCost(tl), CarbonCost(inst, s, power.SingleZone(prof)); got != want {
		t.Errorf("after ApplyMove: timeline %d != sweep %d", got, want)
	}
}

func TestTimelineAddRemoveRoundTrip(t *testing.T) {
	for _, mode := range []string{"dense", "sparse"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "sparse" {
				defer ForceSparseTimelines()()
			}
			prof := power.Constant(100, 5)
			inst := chainInstance(t, 1, []int64{1}, 0, 1)
			tl := oneZoneTimeline(inst, New(1), prof)
			before := drawCost(tl)
			tl.Add(10, 20, 7)
			// 10 units drawing 7 against a budget of 5.
			if got := drawCost(tl) - before; got != 20 {
				t.Errorf("add raised the cost by %d, want 20", got)
			}
			tl.Remove(10, 20, 7)
			if got := drawCost(tl); got != before {
				t.Errorf("add+remove changed cost: %d != %d", got, before)
			}
		})
	}
}

// TestTimelineCompactPreservesCost runs on the sparse representation,
// the only one Compact changes: an add and its remove leave the draw as
// it was but split segments at both ends, and Compact must merge every
// equal-level neighbour again without changing the draw.
func TestTimelineCompactPreservesCost(t *testing.T) {
	defer ForceSparseTimelines()()
	inst, prof, s := randomHEFTInstance(t, 40, 4)
	tl := oneZoneTimeline(inst, s, prof)
	want := drawCost(tl)
	tl.Add(3, 9, 5)
	tl.Remove(3, 9, 5)
	grown := len(tl.t)
	tl.Compact()
	if got := drawCost(tl); got != want {
		t.Errorf("Compact changed cost: %d != %d", got, want)
	}
	if len(tl.t) >= grown {
		t.Errorf("Compact did not shrink the breakpoints: %d of %d left", len(tl.t), grown)
	}
	for i := 1; i+1 < len(tl.t); i++ {
		if tl.w[i] == tl.w[i-1] {
			t.Errorf("segments at %d and %d both draw %d after Compact", tl.t[i-1], tl.t[i], tl.w[i])
		}
	}
}

// TestTimelineScratchStartsClean releases a dense timeline whose draw
// covers every unit of a long horizon, then builds one over a shorter
// profile with other budgets: on storage from the pool it must read no
// work at any unit, and its own profile's budget and interval index at
// every unit. The round repeats because the race detector makes sync.Pool
// drop some items, which leaves a round on fresh storage.
func TestTimelineScratchStartsClean(t *testing.T) {
	long := power.Constant(3000, 9)
	short, err := power.NewProfile([]int64{50, 80, 70}, []int64{4, 1, 6})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 16; round++ {
		dirty := newTimeline(2, long)
		dirty.Add(0, long.T(), 5)
		dirty.release()
		tl := newTimeline(2, short)
		for x := int64(0); x < short.T(); x++ {
			if tl.lvl[x] != 0 || tl.bud[x] != short.BudgetAt(x) || int(tl.ivx[x]) != short.IndexAt(x) {
				t.Fatalf("round %d, unit %d: level %d, budget %d, interval %d; want 0, %d, %d",
					round, x, tl.lvl[x], tl.bud[x], tl.ivx[x], short.BudgetAt(x), short.IndexAt(x))
			}
		}
		tl.release()
	}
}

// TestZoneTimelinesUseAfterReleasePanics pins Release's promise: the
// released set and a timeline it handed out both panic when used.
func TestZoneTimelinesUseAfterReleasePanics(t *testing.T) {
	inst := chainInstance(t, 3, []int64{2, 3, 4}, 1, 2)
	tls := NewZoneTimelines(inst, asap(inst), power.SingleZone(power.Constant(20, 3)))
	tl := tls.Zone(0)
	tls.Release()
	for name, use := range map[string]func(){
		"ZoneTimelines.For":     func() { tls.For(0) },
		"Timeline.Add":          func() { tl.Add(0, 1, 1) },
		"Timeline.MoveGain":     func() { tl.MoveGain(0, 1, 2, 1) },
		"Timeline.FirstImprove": func() { tl.FirstImprovingMove(0, 0, 5, 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Release did not panic", name)
				}
			}()
			use()
		}()
	}
}

func BenchmarkCarbonCostSweep(b *testing.B) {
	inst, prof, s := randomHEFTInstance(b, 500, 1)
	zs := power.SingleZone(prof)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CarbonCost(inst, s, zs)
	}
}

func BenchmarkTimelineMoveGain(b *testing.B) {
	inst, prof, s := randomHEFTInstance(b, 500, 1)
	tl := oneZoneTimeline(inst, s, prof)
	_, work := inst.ProcPower(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.MoveGain(s.Start[10], s.Start[10]+5, inst.Dur[10], work)
	}
}
