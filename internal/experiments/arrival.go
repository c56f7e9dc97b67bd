package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	cawosched "repro"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/scherr"
	"repro/internal/tenancy"
	"repro/internal/wfgen"
)

// The arrival-process family evaluates the online layer end to end: a
// deterministic Poisson stream of workflow submissions drives a tenancy
// manager over a simulated clock, with a rolling-horizon pass after every
// arrival. Sweeping the load factor against the zone count traces the
// carbon-vs-utilization frontier: how much green headroom the admission
// controller can convert into low-carbon placements before the cluster
// saturates and starts rejecting.

// ArrivalSpec identifies one online simulation cell deterministically.
type ArrivalSpec struct {
	// Spec is the base cell: workflow family and size (one fresh workflow
	// of this shape per arrival), cluster, scenario, per-submission
	// deadline factor, zone count, and seed.
	Spec Spec
	// Rate is the load factor: the expected number of arrivals per ASAP
	// makespan D of the base workflow (mean inter-arrival time D/Rate).
	Rate float64
	// Arrivals is the trace length.
	Arrivals int
}

func (a ArrivalSpec) String() string {
	// The /a<rate> suffix is part of the job key, mirroring the /m<mapping>
	// spelling of the mapping-ablation family.
	return fmt.Sprintf("%s/a%g", a.Spec, a.Rate)
}

// Key is the sweep-style job key of the cell.
func (a ArrivalSpec) Key() string {
	return fmt.Sprintf("%s|seed%d|online", a, a.Spec.Seed)
}

// ArrivalResult summarizes one simulated arrival trace.
type ArrivalResult struct {
	Spec     ArrivalSpec
	Admitted int
	Rejected int
	// Moves and SavedCarbon aggregate the rolling-horizon passes: how many
	// placements were re-committed cheaper, and the total carbon saved.
	Moves       int
	SavedCarbon int64
	// AdmittedCost sums the admission-time carbon of the admitted
	// workflows; FinalCost sums their carbon after every rolling-horizon
	// pass (each evaluated on the residual view of its last placement).
	AdmittedCost int64
	FinalCost    int64
	// Utilization is the committed share of the platform's proc-time over
	// [0, Span); Span runs to the last reservation's end.
	Utilization float64
	Span        int64
}

// ArrivalGrid builds the frontier sweep: every load factor crossed with
// every zone count, on the small cluster with the default scenario and the
// paper's default deadline tolerance of 2. Workflow size is capped at
// maxTasks (≤ 0 keeps the family default of 100 tasks).
func ArrivalGrid(maxTasks int, seed uint64, rates []float64, zoneCounts []int, arrivals int) []ArrivalSpec {
	n := 100
	if maxTasks > 0 && n > maxTasks {
		n = maxTasks
	}
	if arrivals <= 0 {
		arrivals = 12
	}
	var specs []ArrivalSpec
	for _, z := range zoneCounts {
		for _, rate := range rates {
			specs = append(specs, ArrivalSpec{
				Spec: Spec{
					Family:         wfgen.Bacass,
					N:              n,
					Cluster:        Small,
					Scenario:       power.Scenarios()[0],
					DeadlineFactor: 2,
					Seed:           seed,
					Zones:          z,
				},
				Rate:     rate,
				Arrivals: arrivals,
			})
		}
	}
	return specs
}

// RunArrivals simulates every cell on a worker pool, preserving spec
// order in the result slice. The simulation is fully deterministic: same
// specs, same results, byte for byte.
func RunArrivals(ctx context.Context, specs []ArrivalSpec, workers int, progress func(done, total int)) ([]ArrivalResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]ArrivalResult, len(specs))
	errs := make([]error, len(specs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	done := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i], errs[i] = runArrival(ctx, specs[i])
				if progress != nil {
					mu.Lock()
					done++
					progress(done, len(specs))
					mu.Unlock()
				}
			}
		}()
	}
	for i := range specs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runArrival simulates one cell: build the cell's supply anchored to the
// base workflow, then replay the Poisson trace through a tenancy manager,
// rebalancing after every arrival.
func runArrival(ctx context.Context, as ArrivalSpec) (ArrivalResult, error) {
	if as.Rate <= 0 {
		return ArrivalResult{}, fmt.Errorf("experiments: %s: load factor must be positive", as)
	}
	if as.Arrivals <= 0 {
		return ArrivalResult{}, fmt.Errorf("experiments: %s: trace needs at least one arrival", as)
	}
	in, err := BuildInstance(as.Spec)
	if err != nil {
		return ArrivalResult{}, err
	}
	cluster := in.Inst.Cluster
	clock := tenancy.NewSimClock(0)
	m, err := tenancy.NewManager(tenancy.Config{
		Solver: cawosched.NewSolver(cluster),
		Supply: in.Zones,
		Clock:  clock,
	})
	if err != nil {
		return ArrivalResult{}, err
	}

	res := ArrivalResult{Spec: as}
	r := rng.New(rng.Mix(as.Spec.Seed, math.Float64bits(as.Rate)^uint64(as.Arrivals)))
	mean := float64(in.D) / as.Rate
	var now int64
	for i := 0; i < as.Arrivals; i++ {
		if i > 0 {
			// Exponential inter-arrival times, at least one time unit so
			// the simulated clock stays strictly monotone.
			dt := int64(-mean*math.Log(1-r.Float64()) + 0.5)
			if dt < 1 {
				dt = 1
			}
			now += dt
			clock.Set(now)
		}
		wf, err := wfgen.Generate(as.Spec.Family, as.Spec.Tasks(), rng.Mix(as.Spec.Seed, uint64(i)+1))
		if err != nil {
			return ArrivalResult{}, fmt.Errorf("experiments: %s: arrival %d: %w", as, i, err)
		}
		_, err = m.Submit(ctx, tenancy.SubmitRequest{
			Workflow:       wf,
			DeadlineFactor: as.Spec.DeadlineFactor,
		})
		switch {
		case err == nil:
			res.Admitted++
		case errors.Is(err, scherr.ErrAdmissionRejected):
			res.Rejected++
		default:
			return ArrivalResult{}, fmt.Errorf("experiments: %s: arrival %d: %w", as, i, err)
		}
		rep, err := m.Rebalance(ctx)
		if err != nil {
			return ArrivalResult{}, fmt.Errorf("experiments: %s: rebalance after arrival %d: %w", as, i, err)
		}
		res.Moves += rep.Moved
		res.SavedCarbon += rep.Saved
	}

	for _, st := range m.List() {
		res.AdmittedCost += st.AdmittedCost
		res.FinalCost += st.Cost
		if st.Finish > res.Span {
			res.Span = st.Finish
		}
	}
	if res.Span > 0 {
		busy := m.Ledger().BusyUnits(cluster.NumCompute())
		res.Utilization = float64(busy) / (float64(cluster.NumCompute()) * float64(res.Span))
	}
	return res, nil
}

// ArrivalFrontier renders the carbon-vs-utilization frontier: one row per
// (zone count, load factor) cell in grid order.
func ArrivalFrontier(results []ArrivalResult) *Table {
	t := &Table{
		Title: "Online arrival sweep: carbon vs utilization frontier",
		Columns: []string{
			"cell", "zones", "load", "arrivals", "admitted", "rejected",
			"util", "carbon_per_wf", "admit_carbon_per_wf", "moves", "saved",
		},
		Note: "load = expected arrivals per ASAP makespan; carbon per admitted workflow after rolling-horizon passes",
	}
	for _, r := range results {
		zones := r.Spec.Spec.Zones
		if zones < 1 {
			zones = 1
		}
		perWF := func(total int64) string {
			if r.Admitted == 0 {
				return "-"
			}
			return fmt.Sprintf("%.0f", float64(total)/float64(r.Admitted))
		}
		t.Rows = append(t.Rows, []string{
			r.Spec.Key(),
			fmt.Sprintf("%d", zones),
			fmt.Sprintf("%g", r.Spec.Rate),
			fmt.Sprintf("%d", r.Spec.Arrivals),
			fmt.Sprintf("%d", r.Admitted),
			fmt.Sprintf("%d", r.Rejected),
			pct(r.Utilization),
			perWF(r.FinalCost),
			perWF(r.AdmittedCost),
			fmt.Sprintf("%d", r.Moves),
			fmt.Sprintf("%d", r.SavedCarbon),
		})
	}
	return t
}
