// Package sim is a discrete-event execution simulator for schedules: it
// "runs" a planned schedule on the platform, node by node, and reports
// what actually happens when reality deviates from the plan.
//
// Two deviations matter in practice and motivate the simulator:
//
//   - task runtimes differ from their estimates (the runtime-prediction
//     literature the paper builds on — Lotaru, Bader et al. — reports
//     double-digit relative errors), and
//   - the realized green power differs from the forecast the schedule was
//     optimized against (the forecast-accuracy axis of Wiesner et al.).
//
// The simulator executes the plan with a right-shift repair policy: every
// node starts at the later of its planned start and the completion of its
// predecessors (plus its processor's previous node), exactly how a
// workflow engine with a static plan behaves. It reports the realized
// makespan, the realized carbon cost under the true profile, and whether
// the deadline was kept. On undisturbed inputs the simulation reproduces
// the planned schedule and the static cost exactly, which doubles as an
// independent check of the Appendix A.1 cost sweep.
package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ceg"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/schedule"
)

// Noise perturbs planned durations.
type Noise struct {
	// RelStdDev is the relative standard deviation of the multiplicative
	// log-normal-ish runtime noise (0 = exact runtimes). A task with
	// planned duration d executes for max(1, round(d·factor)) where
	// factor is drawn with mean 1 and this relative spread.
	RelStdDev float64
	// Bias shifts all runtimes multiplicatively (e.g. 0.1 = tasks
	// systematically run 10% longer). Applied after the random factor.
	Bias float64
	// Seed drives the noise deterministically.
	Seed uint64
}

// factor draws the runtime multiplier for node v.
func (n Noise) factor(v int) float64 {
	if n.RelStdDev == 0 && n.Bias == 0 {
		return 1
	}
	r := rng.New(rng.Mix(n.Seed, uint64(v)|0x51a9<<32))
	f := 1.0
	if n.RelStdDev > 0 {
		f = math.Exp(r.Normal(0, n.RelStdDev))
	}
	return f * (1 + n.Bias)
}

// Result reports a simulated execution.
type Result struct {
	// Start and Dur are the realized start times and durations.
	Start []int64
	Dur   []int64
	// Makespan is the realized completion time.
	Makespan int64
	// Cost is the realized carbon cost under the evaluation profile.
	// It equals BrownEnergy by definition (Section 3: carbon cost is
	// proportional to the non-green power).
	Cost int64
	// GreenEnergy is the total energy drawn from the green budget:
	// Σ_t min(P_t, G_t).
	GreenEnergy int64
	// BrownEnergy is the total energy above the budget: Σ_t max(P_t−G_t, 0).
	BrownEnergy int64
	// DeadlineMet reports whether the realized makespan fits the
	// evaluation profile's horizon.
	DeadlineMet bool
	// Shifted counts nodes that could not start at their planned time.
	Shifted int
}

// TotalEnergy returns the platform's total energy draw over the horizon.
func (r *Result) TotalEnergy() int64 { return r.GreenEnergy + r.BrownEnergy }

// GreenFraction returns the share of energy covered by green power.
func (r *Result) GreenFraction() float64 {
	total := r.TotalEnergy()
	if total == 0 {
		return 1
	}
	return float64(r.GreenEnergy) / float64(total)
}

// Execute simulates the planned schedule with the given runtime noise and
// evaluates carbon under actual (which may differ from the profile the
// plan was optimized for). The plan must be valid for the instance; the
// execution may overrun the horizon, in which case DeadlineMet is false
// and the overrun time is costed by extending the profile's last interval
// (the grid does not stop at the planner's horizon).
func Execute(inst *ceg.Instance, plan *schedule.Schedule, actual *power.Profile, noise Noise) (*Result, error) {
	N := inst.N()
	if len(plan.Start) != N {
		return nil, fmt.Errorf("sim: plan covers %d nodes, instance has %d", len(plan.Start), N)
	}
	res := &Result{
		Start: make([]int64, N),
		Dur:   make([]int64, N),
	}
	for v := 0; v < N; v++ {
		d := int64(math.Round(float64(inst.Dur[v]) * noise.factor(v)))
		if d < 1 {
			d = 1
		}
		res.Dur[v] = d
	}
	// Right-shift execution: planned start, delayed by late predecessors.
	// Ordering edges are part of Gc, so processor exclusivity is implied.
	for _, v := range inst.Topo() {
		start := plan.Start[v]
		for _, ei := range inst.G.InEdges(v) {
			e := inst.G.Edges[ei]
			if f := res.Start[e.From] + res.Dur[e.From]; f > start {
				start = f
			}
		}
		if start > plan.Start[v] {
			res.Shifted++
		}
		res.Start[v] = start
		if f := start + res.Dur[v]; f > res.Makespan {
			res.Makespan = f
		}
	}
	res.DeadlineMet = res.Makespan <= actual.T()
	eval := actual
	if res.Makespan > actual.T() {
		eval = actual.Clip(res.Makespan)
	}
	res.BrownEnergy, res.GreenEnergy = energySplit(inst, res.Start, res.Dur, eval)
	res.Cost = res.BrownEnergy
	return res, nil
}

// energySplit is the Appendix A.1 sweep over realized (start, duration)
// pairs, additionally accounting for the green share min(P_t, G_t).
func energySplit(inst *ceg.Instance, start, dur []int64, prof *power.Profile) (brown, green int64) {
	type event struct {
		t int64
		d int64
	}
	events := make([]event, 0, 2*inst.N())
	for v := 0; v < inst.N(); v++ {
		_, work := inst.ProcPower(v)
		events = append(events, event{start[v], work})
		events = append(events, event{start[v] + dur[v], -work})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].t < events[j].t })
	idle := inst.TotalIdlePower()
	var workPower int64
	ei := 0
	for ei < len(events) && events[ei].t <= 0 {
		workPower += events[ei].d
		ei++
	}
	cur := int64(0)
	for _, iv := range prof.Intervals {
		for cur < iv.End {
			next := iv.End
			if ei < len(events) && events[ei].t < next {
				next = events[ei].t
			}
			if next > cur {
				p := idle + workPower
				if over := p - iv.Budget; over > 0 {
					brown += over * (next - cur)
					green += iv.Budget * (next - cur)
				} else {
					green += p * (next - cur)
				}
				cur = next
			}
			for ei < len(events) && events[ei].t == cur {
				workPower += events[ei].d
				ei++
			}
		}
	}
	return brown, green
}

// Replay is Execute with no noise and the plan's own profile: it must
// reproduce the plan exactly. It exists as an executable consistency check
// between the simulator and the static cost model.
func Replay(inst *ceg.Instance, plan *schedule.Schedule, prof *power.Profile) (*Result, error) {
	return Execute(inst, plan, prof, Noise{})
}
