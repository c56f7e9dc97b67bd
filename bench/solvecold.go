package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	cawosched "repro"
)

// solve_cold_1k: a closed loop of one caller solving never-seen 1000-task
// workflows through the library. Every op misses the plan memo and the
// solve cache, so HEFT, the instance build, the greedy and the local
// search do nearly all the work and the wire, the server and the caches
// none.
var solveCold = workload{
	name:  "solve_cold_1k",
	why:   "the paper's running-time experiment: every op plans and schedules a new 1000-task workflow, so heft, ceg and core do the work and wire, server and caches none",
	size:  size{ops: 200, tasks: 1000, probe: 5},
	setup: setupSolveCold,
	onPath: []string{
		"dag.fingerprint", "heft.map", "ceg.build", "power.supply_build", "core.solve",
	},
	unattributed: "solver.unattributed_us",
}

const (
	coldZones = 3
	// coldLead ops open every round outside the clock. A round's new
	// cluster builds its links on first use and its new solver's heap
	// starts small, so the first dozen solves of a round run at two to
	// three times the steady cost; unmeasured, they would be the round's
	// slowest 5% and p95 would report the size of that ramp.
	coldLead = 16
)

type coldRunner struct {
	sz     size
	lead   []solveOp
	opsSeq []solveOp
	bodies [][]byte // encoded lazily, only for probed ops
}

func setupSolveCold(seed uint64, sz size) (runner, error) {
	pop := newRand(popSeed, "solve_cold_1k")
	wfs, err := genWorkflows(pop, coldLead+sz.ops, sz.tasks)
	if err != nil {
		return nil, err
	}
	c := &coldRunner{sz: sz, bodies: make([][]byte, sz.ops)}
	for i, wf := range wfs {
		op := solveOp{wf: wf, seed: pop.Uint64(), zones: coldZones}
		if i < coldLead {
			c.lead = append(c.lead, op)
		} else {
			c.opsSeq = append(c.opsSeq, op)
		}
	}
	newRand(seed, "solve_cold_1k").Shuffle(len(c.opsSeq), func(i, j int) {
		c.opsSeq[i], c.opsSeq[j] = c.opsSeq[j], c.opsSeq[i]
	})
	return c, nil
}

func (c *coldRunner) ops() int     { return len(c.opsSeq) }
func (c *coldRunner) close() error { return nil }

func (c *coldRunner) round(n int, tr *tracer) (*roundResult, error) {
	// A new cluster and solver per round: no plan, no cached solve and no
	// materialised link survives from the round before.
	cluster := cawosched.SmallZonedCluster(clusterSeed, coldZones)
	solver := cawosched.NewSolver(cluster)
	var probe *prober
	if tr != nil {
		probe = newProber(cluster)
	}
	ctx := context.Background()
	res := newRoundResult(n)
	resps := make([]*cawosched.Response, n)
	errs := make([]error, n)
	reqs := make([]cawosched.Request, n)
	for i := range reqs {
		reqs[i] = c.opsSeq[i].request()
	}
	for _, op := range c.lead {
		if _, err := solver.Solve(ctx, op.request()); err != nil {
			return nil, err
		}
	}
	before := solver.Stats()

	res.begin()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		resps[i], errs[i] = solver.Solve(ctx, reqs[i])
		t1 := time.Now()
		res.lat = append(res.lat, ms(t1.Sub(t0)))
		if tr != nil {
			tr.op(i, t0, t0, t1)
			if i%c.sz.probe == 0 && errs[i] == nil {
				if c.bodies[i] == nil {
					var err error
					if c.bodies[i], err = c.opsSeq[i].body(); err != nil {
						return nil, err
					}
				}
				run := startProbe(tr, i)
				probe.pipeline(run, c.opsSeq[i], c.bodies[i], resps[i].Cost, res)
				if err := run.finish(res, micros(t1.Sub(t0))); err != nil {
					return nil, err
				}
			}
		}
	}
	res.end(n, tr != nil)

	dig := fnv.New64a()
	var greedy int64
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			res.fail(i, errs[i])
			continue
		}
		s, err := checkLibrary(resps[i], false)
		if err != nil {
			res.fail(i, err)
			continue
		}
		res.cost += s.cost
		res.baseline += s.asapCost
		fmt.Fprintln(dig, i, s.cost, s.deadline)
		greedy += resps[i].Stats.GreedyCost
		res.sampleStages(s)
		st := resps[i].Stats
		res.count("core.ls_rounds", float64(st.LSRounds))
		res.count("core.ls_moves", float64(st.LSMoves))
		res.count("core.ls_scans", float64(st.LSScans))
	}
	res.digest = dig.Sum64()
	if res.baseline > 0 {
		res.count("core.greedy_cost_ratio", float64(greedy)/float64(res.baseline))
	}
	res.solverCounts(before, solver.Stats())
	return res, nil
}
