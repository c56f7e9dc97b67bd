// Cross-solver integration tests: every algorithm in the repository is
// run on a shared grid of instances and their results are checked against
// each other. These are the end-to-end consistency guarantees:
//
//   - every scheduler produces valid schedules on every instance;
//   - no heuristic ever beats the exact optimum;
//   - the uniprocessor DP equals the exact optimum on chains;
//   - local search and annealing never worsen their input;
//   - the discrete-event replay of any plan reproduces its static cost.
package cawosched_test

import (
	"context"

	"fmt"
	"testing"

	cawosched "repro"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/wfgen"
)

// integrationGrid is a deliberately diverse set of small instances.
func integrationGrid() []experiments.Spec {
	var specs []experiments.Spec
	for _, fam := range wfgen.Families() {
		for _, sc := range power.Scenarios() {
			specs = append(specs, experiments.Spec{
				Family: fam, N: 30, Cluster: experiments.Small,
				Scenario: sc, DeadlineFactor: 1.5, Seed: 77,
			})
		}
	}
	specs = append(specs,
		experiments.Spec{Family: wfgen.Eager, N: 50, Cluster: experiments.Large, Scenario: power.S1, DeadlineFactor: 1, Seed: 77},
		experiments.Spec{Family: wfgen.Bacass, N: 50, Cluster: experiments.Large, Scenario: power.S2, DeadlineFactor: 3, Seed: 77},
	)
	return specs
}

func TestIntegrationAllSchedulersValid(t *testing.T) {
	for _, spec := range integrationGrid() {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			in, err := experiments.BuildInstance(spec)
			if err != nil {
				t.Fatal(err)
			}
			T := in.Zones.T()
			type namedSched struct {
				name string
				s    *schedule.Schedule
			}
			var all []namedSched

			asap := core.ASAP(in.Inst)
			all = append(all, namedSched{"ASAP", asap})
			alap, err := core.ALAP(in.Inst, T)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, namedSched{"ALAP", alap})
			for _, opt := range core.AllVariants() {
				s, _, err := core.Run(context.Background(), in.Inst, in.Zones, opt)
				if err != nil {
					t.Fatal(err)
				}
				all = append(all, namedSched{opt.Name(), s})
			}
			all = append(all, namedSched{"pressWR+anneal", annealedPressWR(t, in)})

			for _, ns := range all {
				if err := schedule.Validate(in.Inst, ns.s, T); err != nil {
					t.Errorf("%s: %v", ns.name, err)
				}
				// Replay must reproduce the static cost.
				res, err := sim.Replay(in.Inst, ns.s, in.Zones.Profile(0))
				if err != nil {
					t.Fatalf("%s: replay: %v", ns.name, err)
				}
				if res.Cost != schedule.CarbonCost(in.Inst, ns.s, in.Zones) {
					t.Errorf("%s: replay cost %d != static cost", ns.name, res.Cost)
				}
			}
		})
	}
}

// annealedPressWR returns the pressWR budget-greedy schedule improved by
// the simulated annealer.
func annealedPressWR(t *testing.T, in *experiments.Instance) *schedule.Schedule {
	t.Helper()
	s, err := core.Greedy(context.Background(), in.Inst, in.Zones, core.Options{Score: core.ScorePressureW, Refined: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Anneal(context.Background(), in.Inst, in.Zones, s, core.AnnealOptions{Seed: 1, Iterations: 2000}); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestIntegrationNoHeuristicBeatsOptimum(t *testing.T) {
	// Tiny instances where the branch-and-bound optimum is computable.
	for _, fam := range wfgen.Families() {
		fam := fam
		t.Run(fmt.Sprint(fam), func(t *testing.T) {
			spec := experiments.Spec{
				Family: fam, N: 7, Cluster: experiments.Small,
				Scenario: power.S3, DeadlineFactor: 2, Seed: 13,
			}
			in, err := experiments.BuildInstance(spec)
			if err != nil {
				t.Fatal(err)
			}
			_, opt, err := exact.Solve(context.Background(), in.Inst, in.Zones, exact.Options{MaxNodes: 20_000_000})
			if err != nil {
				t.Fatal(err)
			}
			check := func(name string, s *schedule.Schedule) {
				if c := schedule.CarbonCost(in.Inst, s, in.Zones); c < opt {
					t.Errorf("%s cost %d beats optimum %d", name, c, opt)
				}
			}
			check("ASAP", core.ASAP(in.Inst))
			alap, err := core.ALAP(in.Inst, in.Zones.T())
			if err != nil {
				t.Fatal(err)
			}
			check("ALAP", alap)
			for _, o := range core.AllVariants() {
				s, _, err := core.Run(context.Background(), in.Inst, in.Zones, o)
				if err != nil {
					t.Fatal(err)
				}
				check(o.Name(), s)
			}
			check("pressWR+anneal", annealedPressWR(t, in))
		})
	}
}

func TestIntegrationDPAgreesWithExactOnChains(t *testing.T) {
	// Build a single-processor chain through the public API and compare
	// the DP optimum with the branch-and-bound optimum.
	wf := cawosched.NewWorkflow(5)
	weights := []int64{2, 3, 1, 2, 2}
	for i, w := range weights {
		wf.SetWeight(i, w)
		if i > 0 {
			wf.AddEdge(i-1, i, 1)
		}
	}
	cluster := cawosched.NewCluster([]cawosched.ProcType{
		{Name: "U", Speed: 1, Idle: 2, Work: 5},
	}, []int{1}, 1)
	inst, err := cawosched.BuildInstance(wf, &cawosched.Mapping{
		Proc:   []int{0, 0, 0, 0, 0},
		Order:  [][]int{{0, 1, 2, 3, 4}},
		Finish: []int64{2, 5, 6, 8, 10},
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := power.Generate(power.S1, 25, 5, 0, 8, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dp.Solve(&dp.Problem{Dur: weights, Idle: 2, Work: 5, Prof: prof})
	if err != nil {
		t.Fatal(err)
	}
	_, bb, err := exact.Solve(context.Background(), inst, power.SingleZone(prof), exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != bb {
		t.Errorf("DP optimum %d != branch-and-bound optimum %d", res.Cost, bb)
	}
}
