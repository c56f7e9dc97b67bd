package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	cawosched "repro"
	"repro/internal/power"
	"repro/internal/tenancy"
)

// admit_churn_60: the multi-tenant scheduler under churn. The same solver
// and core as the other workloads, used differently: every solve runs
// against the residual supply other tenants left, under the manager's one
// mutex, with ledger writes beside reads, and a rebalance pass costs more
// the more claims are live.
var admitChurn = workload{
	name:  "admit_churn_60",
	why:   "tenancy.Manager under a fixed 70/10/10/10 mix of submit/cancel/rebalance/get on a simulated clock: solves against residual supply, ledger writes beside reads, cost growing with live claims",
	size:  size{ops: 2000, tasks: 60, workflows: 8, probe: 20},
	setup: setupAdmitChurn,
	onPath: []string{
		"solver.plan_hit", "tenancy.residual", "tenancy.solve", "tenancy.find_offset",
	},
	unattributed: "tenancy.unattributed_us",
}

const (
	admitZones = 2
	// The supply forecast of a schedd in the online configuration: 480
	// time units in 24 intervals, repeating.
	supplyHorizon   = 480
	supplyIntervals = 24
	supplySeed      = 42
	clockStep       = 200 // model time units the clock advances per op
	admitDeadline   = 30  // deadline factor of every submission
	cancelWindow    = 16  // cancel and get pick among this many latest admissions
)

// Op classes of the churn, and their shares per block of 10 ops.
const (
	classSubmit = iota
	classCancel
	classRebalance
	classGet
)

var (
	churnBlock = classBlock(7, 1, 1, 1)
	churnNames = []string{"submit", "cancel", "rebalance", "get"}
)

type churnOp struct {
	class int
	pick  int // submit: workflow; cancel, get: which of the latest admissions
}

type churnRunner struct {
	sz     size
	wfs    []*cawosched.DAG
	shapes []solveOp // per workflow: the solve the layers are probed with
	bodies [][]byte
	seq    []churnOp
}

func setupAdmitChurn(seed uint64, sz size) (runner, error) {
	wfs, err := genWorkflows(newRand(popSeed, "admit_churn_60"), sz.workflows, sz.tasks)
	if err != nil {
		return nil, err
	}
	c := &churnRunner{sz: sz, wfs: wfs}
	for _, wf := range wfs {
		shape := solveOp{wf: wf, seed: supplySeed, zones: admitZones, deadline: admitDeadline}
		body, err := shape.body()
		if err != nil {
			return nil, err
		}
		c.shapes, c.bodies = append(c.shapes, shape), append(c.bodies, body)
	}
	r := newRand(seed, "admit_churn_60")
	classes := shuffledBlocks(r, sz.ops, churnBlock)
	submits := 0
	for _, class := range classes {
		if class == classSubmit {
			submits++
		}
	}
	shapes := balanced(r, submits, len(wfs))
	for _, class := range classes {
		op := churnOp{class: class, pick: r.IntN(cancelWindow)}
		if class == classSubmit {
			op.pick, shapes = shapes[0], shapes[1:]
		}
		c.seq = append(c.seq, op)
	}
	// Cancel and get need an admission to name: the round opens with one.
	for i, op := range c.seq {
		if op.class == classSubmit {
			c.seq[0], c.seq[i] = c.seq[i], c.seq[0]
			break
		}
	}
	return c, nil
}

func (c *churnRunner) ops() int     { return len(c.seq) }
func (c *churnRunner) close() error { return nil }

// newManager assembles a manager over a simulated clock the way schedd's
// online configuration does, on a cluster and solver nothing has used.
func newManager() (*tenancy.Manager, *tenancy.SimClock, *cawosched.Solver, error) {
	cluster := cawosched.SmallZonedCluster(clusterSeed, admitZones)
	specs := make([]power.ZoneSpec, cluster.NumZones())
	for z := range specs {
		gmin, gmax := power.PlatformBounds(cluster.ZoneComputeIdle(z), cluster.ZoneComputeWork(z))
		specs[z] = power.ZoneSpec{Name: "z" + strconv.Itoa(z), Scenario: zoneScenarios(admitZones)[z], Gmin: gmin, Gmax: gmax}
	}
	supply, err := power.GenerateZones(specs, supplyHorizon, supplyIntervals, supplySeed)
	if err != nil {
		return nil, nil, nil, err
	}
	clock := tenancy.NewSimClock(0)
	solver := cawosched.NewSolver(cluster)
	m, err := tenancy.NewManager(tenancy.Config{Solver: solver, Supply: supply, Clock: clock})
	return m, clock, solver, err
}

// churnAnswer is one op's answer, kept for checking after the round.
type churnAnswer struct {
	status *tenancy.WorkflowStatus
	err    error
}

func (c *churnRunner) round(n int, tr *tracer) (*roundResult, error) {
	m, clock, solver, err := newManager()
	if err != nil {
		return nil, err
	}
	var probe *prober
	if tr != nil {
		probe = newProber(solver.Cluster())
	}
	ctx := context.Background()
	res := newRoundResult(n)
	answers := make([]churnAnswer, n)
	durations := make([]time.Duration, n)
	admitted := make([]string, 0, n)
	last := make([]*tenancy.WorkflowStatus, len(c.wfs)) // latest admission per workflow
	submits := 0

	res.begin()
	for i := 0; i < n; i++ {
		op, a := c.seq[i], &answers[i]
		clock.Advance(clockStep)
		var run *probeRun
		if tr != nil && op.class == classSubmit && last[op.pick] != nil {
			if submits++; submits%c.sz.probe == 0 {
				run = startProbe(tr, i)
				probeAdmission(run, m, probe, c.wfs[op.pick], clock.Now(), last[op.pick])
			}
		}
		var target string
		if len(admitted) > 0 {
			target = admitted[len(admitted)-1-op.pick%min(cancelWindow, len(admitted))]
		}
		t0 := time.Now()
		switch op.class {
		case classSubmit:
			a.status, a.err = m.Submit(ctx, tenancy.SubmitRequest{Workflow: c.wfs[op.pick], Variant: variant, DeadlineFactor: admitDeadline})
		case classCancel:
			a.status, a.err = m.Cancel(target)
		case classRebalance:
			_, a.err = m.Rebalance(ctx)
		case classGet:
			a.status, a.err = m.Get(target)
		}
		t1 := time.Now()
		durations[i] = t1.Sub(t0)
		res.lat = append(res.lat, ms(durations[i]))
		if op.class == classSubmit && a.err == nil {
			admitted = append(admitted, a.status.ID)
			last[op.pick] = a.status
		}
		if tr != nil {
			tr.op(i, t0, t0, t1)
		}
		if run != nil {
			probe.pipeline(run, c.shapes[op.pick], c.bodies[op.pick], -1, res)
			if err := run.finish(res, micros(durations[i])); err != nil {
				return nil, err
			}
		}
	}
	res.end(n, tr != nil)

	for i, a := range answers {
		class := c.seq[i].class
		res.sample("tenancy."+churnNames[class]+"_us", micros(durations[i]))
		switch {
		case a.err != nil:
			res.fail(i, a.err)
		case class != classRebalance && a.status.Finish > a.status.Deadline:
			res.fail(i, fmt.Errorf("%s finishes at %d, after its deadline %d", a.status.ID, a.status.Finish, a.status.Deadline))
		}
		if class == classSubmit && a.err != nil && !errors.Is(a.err, cawosched.ErrInfeasibleDeadline) {
			return nil, fmt.Errorf("op %d: submit: %w", i, a.err)
		}
	}
	if err := m.Ledger().Audit(); err != nil {
		res.fail(n-1, fmt.Errorf("ledger audit: %w", err))
	}
	res.digest = historyDigest(m.History())
	g := m.Gauges()
	res.cost, res.baseline = g.PlacementCostUnits, g.AdmittedCostUnits
	res.count("tenancy.admitted", float64(g.SubmittedTotal))
	res.count("tenancy.rejected", float64(g.RejectedTotal))
	res.count("tenancy.rebalance_moves", float64(g.RebalanceMoves))
	res.count("tenancy.saved_units", float64(g.SavedUnits))
	res.count("tenancy.ledger_claims", float64(g.LedgerClaims))
	res.solverCounts(cawosched.SolverStats{}, solver.Stats())
	return res, nil
}

// probeAdmission times what an admission does besides bookkeeping, on the
// live ledger at the op's own clock, before the op changes it: the
// residual supply over the submission's window, the solve against that
// residual (a miss every time: no two residuals are equal), and the
// earliest conflict-free offset for claims shaped like the workflow's
// previous admission.
func probeAdmission(run *probeRun, m *tenancy.Manager, p *prober, wf *cawosched.DAG, now int64, prev *tenancy.WorkflowStatus) {
	window := prev.Deadline - prev.SubmittedAt
	var residual *cawosched.ZoneSet
	run.timed("tenancy.residual", func() (err error) {
		residual, err = m.Ledger().Residual(m.Supply(), p.cluster.ZoneOf, now, window)
		return err
	})
	run.timed("tenancy.solve", func() error {
		_, err := p.solver.Solve(p.bare, cawosched.Request{Workflow: wf, Variant: variant, Zones: residual})
		return err
	})
	claims := make([]tenancy.Claim, len(prev.Claims))
	for i, cl := range prev.Claims {
		shift := now - prev.SubmittedAt
		claims[i] = tenancy.Claim{Proc: cl.Proc, Start: cl.Start + shift, End: cl.End + shift, Work: cl.Work}
	}
	run.timed("tenancy.find_offset", func() error {
		m.Ledger().FindOffset(claims, now+window)
		return nil
	})
}
