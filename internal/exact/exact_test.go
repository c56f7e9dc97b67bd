package exact

import (
	"context"
	"errors"

	"testing"
	"testing/quick"

	"repro/internal/ceg"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/schedule"
	"repro/internal/scherr"
)

// uniChain builds a single-processor chain instance (speed 1).
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

// multiInstance builds a small 2-processor instance with a cross edge.
func multiInstance(tb testing.TB, seed uint64) *ceg.Instance {
	tb.Helper()
	r := rng.New(seed)
	n := 3 + r.Intn(3)
	d := dag.New(n)
	for i := 0; i < n; i++ {
		d.SetWeight(i, r.IntRange(1, 3))
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.3 {
				d.AddEdge(i, j, r.IntRange(1, 2))
			}
		}
	}
	cluster := platform.New([]platform.ProcType{
		{Name: "A", Speed: 1, Idle: 1, Work: 3},
		{Name: "B", Speed: 2, Idle: 2, Work: 5},
	}, []int{1, 1}, seed)
	proc := make([]int, n)
	finish := make([]int64, n)
	var orders [2][]int
	var ends [2]int64
	topo, _ := d.TopoOrder()
	for _, v := range topo {
		p := r.Intn(2)
		proc[v] = p
		orders[p] = append(orders[p], v)
		ends[p] += cluster.ExecTime(d.Tasks[v].Weight, p)
		finish[v] = ends[p]
	}
	inst, err := ceg.Build(d, &ceg.Mapping{Proc: proc, Order: orders[:], Finish: finish}, cluster)
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

func TestSolveSingleTaskOptimal(t *testing.T) {
	inst := uniChain(t, []int64{2}, 0, 5)
	prof, err := power.NewProfile([]int64{4, 4}, []int64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	s, cost, err := Solve(context.Background(), inst, power.SingleZone(prof), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Errorf("cost = %d, want 0", cost)
	}
	if s.Start[0] < 4 {
		t.Errorf("task at %d, want inside green window [4, 8)", s.Start[0])
	}
}

func TestSolveMatchesUniprocessorDP(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(4)
		weights := make([]int64, n)
		var total int64
		for i := range weights {
			weights[i] = r.IntRange(1, 3)
			total += weights[i]
		}
		idle, work := r.IntRange(0, 2), r.IntRange(1, 4)
		inst := uniChainQuick(weights, idle, work)
		T := total + r.IntRange(1, 12)
		J := int(r.IntRange(1, 4))
		if int64(J) > T {
			J = int(T)
		}
		prof, err := power.Generate(power.Scenarios()[r.Intn(4)], T, J, 0, r.IntRange(1, idle+work+2), r)
		if err != nil {
			return false
		}
		_, bbCost, err := Solve(context.Background(), inst, power.SingleZone(prof), Options{})
		if err != nil {
			return false
		}
		res, err := dp.Solve(&dp.Problem{Dur: weights, Idle: idle, Work: work, Prof: prof})
		if err != nil {
			return false
		}
		// The DP ignores link processors (there are none on a chain) and
		// uses the same cost model, so the optima must agree.
		return bbCost == res.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func uniChainQuick(weights []int64, idle, work int64) *ceg.Instance {
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
		panic(err)
	}
	return inst
}

func TestSolveNeverWorseThanHeuristics(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		inst := multiInstance(t, seed)
		D := core.ASAPMakespan(inst)
		T := D + 10
		r := rng.New(seed)
		gmin, gmax := power.PlatformBounds(inst.TotalIdlePower(), 8)
		prof, err := power.Generate(power.S1, T, 4, gmin, gmax, r)
		if err != nil {
			t.Fatal(err)
		}
		_, optCost, err := Solve(context.Background(), inst, power.SingleZone(prof), Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, opt := range core.AllVariants() {
			s, _, err := core.Run(context.Background(), inst, power.SingleZone(prof), opt)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, opt.Name(), err)
			}
			if c := schedule.CarbonCost(inst, s, power.SingleZone(prof)); c < optCost {
				t.Errorf("seed %d: heuristic %s cost %d beats 'optimal' %d",
					seed, opt.Name(), c, optCost)
			}
		}
		asapCost := schedule.CarbonCost(inst, core.ASAP(inst), power.SingleZone(prof))
		if asapCost < optCost {
			t.Errorf("seed %d: ASAP cost %d beats 'optimal' %d", seed, asapCost, optCost)
		}
	}
}

func TestSolveUsesIncumbent(t *testing.T) {
	inst := uniChain(t, []int64{2, 2}, 1, 2)
	prof, err := power.NewProfile([]int64{5, 5}, []int64{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	inc := core.ASAP(inst)
	s, cost, err := Solve(context.Background(), inst, power.SingleZone(prof), Options{Incumbent: inc})
	if err != nil {
		t.Fatal(err)
	}
	if c := schedule.CarbonCost(inst, s, power.SingleZone(prof)); c != cost {
		t.Errorf("reported cost %d != evaluated %d", cost, c)
	}
	if asap := schedule.CarbonCost(inst, inc, power.SingleZone(prof)); cost > asap {
		t.Errorf("optimum %d worse than incumbent %d", cost, asap)
	}
}

func TestSolveBudgetExhaustion(t *testing.T) {
	inst := uniChain(t, []int64{1, 1, 1, 1, 1}, 0, 1)
	prof := power.Constant(40, 0)
	_, _, err := Solve(context.Background(), inst, power.SingleZone(prof), Options{MaxNodes: 10})
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget (with tiny node budget)", err)
	}
	var be *scherr.BudgetError
	if !errors.As(err, &be) || be.Nodes <= 10 {
		t.Errorf("err = %#v, want *scherr.BudgetError with Nodes > 10", err)
	}
}

func TestSolveInfeasible(t *testing.T) {
	inst := uniChain(t, []int64{5, 5}, 1, 1)
	prof := power.Constant(9, 10)
	if _, _, err := Solve(context.Background(), inst, power.SingleZone(prof), Options{}); err == nil {
		t.Error("infeasible deadline not rejected")
	}
}

func TestSolveRejectsBadIncumbent(t *testing.T) {
	inst := uniChain(t, []int64{2, 2}, 1, 1)
	prof := power.Constant(10, 5)
	bad := schedule.New(inst.N())
	bad.Start[1] = 0 // overlaps task 0
	if _, _, err := Solve(context.Background(), inst, power.SingleZone(prof), Options{Incumbent: bad}); err == nil {
		t.Error("invalid incumbent accepted")
	}
}

func BenchmarkSolveTiny(b *testing.B) {
	inst := multiInstance(b, 3)
	D := core.ASAPMakespan(inst)
	prof, err := power.Generate(power.S3, D+8, 4, 0, 10, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Solve(context.Background(), inst, power.SingleZone(prof), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
