package main

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"

	cawosched "repro"
	"repro/internal/obs"
	"repro/internal/wire"
)

// The layers are measured from outside: the harness calls the public
// function that is each layer's entry point on the inputs of an op the
// workload just ran, and records a span around the call. Nothing inside
// the program is instrumented, so a layer's number is what a caller of
// that function would see.

// probeSample is one probed op: how long its real call took, and how long
// each layer took when replayed on the same inputs.
type probeSample struct {
	call   float64            // µs
	layers map[string]float64 // µs by span name
}

// prober replays ops through the layers on the workload's own cluster —
// a cluster numbers its links in the order they are first used, and the
// scheduler breaks ties by processor number, so only the cluster the real
// call ran on reproduces the call's schedule — but on a solver of its
// own, so probing never touches the caches or the counters of the solver
// under measurement. Every link an op needs exists once its real call has
// returned: replaying the op does not change the cluster.
type prober struct {
	cluster *cawosched.Cluster
	solver  *cawosched.Solver
	bare    context.Context
	traced  context.Context
}

func newProber(cluster *cawosched.Cluster) *prober {
	bare := context.Background()
	return &prober{
		cluster: cluster,
		solver:  cawosched.NewSolver(cluster),
		bare:    bare,
		traced:  obs.WithTracer(obs.WithMeter(bare, obs.NewRegistry()), obs.NewTracer(obs.DefaultTraceBuffer)),
	}
}

// probeRun is one op's replay: a "replay" root span with one child span
// per layer. The first layer that fails stops the run.
type probeRun struct {
	tr     *tracer
	root   int
	op     int
	layers map[string]float64
	err    error
}

func startProbe(tr *tracer, op int) *probeRun {
	return &probeRun{tr: tr, root: tr.begin(0, op, "replay"), op: op, layers: make(map[string]float64)}
}

func (r *probeRun) timed(name string, fn func() error) {
	if r.err != nil {
		return
	}
	id := r.tr.begin(r.root, r.op, name)
	err := fn()
	r.layers[name] = r.tr.end(id)
	if err != nil {
		r.err = fmt.Errorf("probe of op %d: %s: %w", r.op, name, err)
	}
}

// finish closes the replay and, unless a layer failed, files it with the
// round as the probe of an op whose real call took callMicros.
func (r *probeRun) finish(res *roundResult, callMicros float64) error {
	r.tr.end(r.root)
	if r.err == nil {
		res.probes = append(res.probes, probeSample{call: callMicros, layers: r.layers})
	}
	return r.err
}

// pipeline replays op through the layers in pipeline order. body is the
// op's encoded wire request. wantCost, when not negative, is the cost the
// op's real call returned: the replayed pipeline must arrive at the same
// cost, or the layers it timed are not the layers the call ran.
func (p *prober) pipeline(run *probeRun, op solveOp, body []byte, wantCost int64, res *roundResult) {
	var wf *cawosched.DAG
	run.timed("wire.decode", func() (err error) {
		var wreq wire.SolveRequest
		if err = json.Unmarshal(body, &wreq); err == nil {
			wf, err = wreq.Workflow.ToDAG()
		}
		return err
	})
	run.timed("dag.fingerprint", func() error { wf.Fingerprint(); return nil })
	var h *cawosched.HEFTResult
	run.timed("heft.map", func() (err error) { h, err = cawosched.HEFT(wf, p.cluster); return err })
	var inst *cawosched.Instance
	run.timed("ceg.build", func() (err error) {
		inst, err = cawosched.BuildInstance(wf, &cawosched.Mapping{Proc: h.Proc, Order: h.Order, Finish: h.Finish}, p.cluster)
		return err
	})
	req := op.request()
	var zones *cawosched.ZoneSet
	run.timed("power.supply_build", func() (err error) { zones, err = p.solver.ZonesFor(p.bare, inst, req); return err })
	run.timed("power.zone_digest", func() error { zones.Digest(); return nil })

	// A prebuilt instance is never cached, so these three are real runs of
	// the scheduler: greedy alone, greedy + local search, and the latter
	// again under the program's own tracing.
	prebuilt := func(ctx context.Context, variant string) (*cawosched.Response, error) {
		return p.solver.Solve(ctx, cawosched.Request{Instance: inst, Zones: zones, Variant: variant})
	}
	run.timed("core.greedy", func() error { _, err := prebuilt(p.bare, strings.TrimSuffix(variant, "-LS")); return err })
	var solved *cawosched.Response
	run.timed("core.solve", func() (err error) { solved, err = prebuilt(p.bare, variant); return err })
	run.timed("obs.solve", func() error { _, err := prebuilt(p.traced, variant); return err })
	if run.err == nil && wantCost >= 0 && solved.Cost != wantCost {
		run.err = fmt.Errorf("probe of op %d: replayed pipeline costs %d, the call returned %d", run.op, solved.Cost, wantCost)
	}

	run.timed("schedule.validate", func() error { return cawosched.Validate(inst, solved.Schedule, zones.T()) })
	run.timed("schedule.cost", func() error { cawosched.CarbonCostZones(inst, solved.Schedule, zones); return nil })
	var breakdown []cawosched.ZoneCost
	run.timed("schedule.breakdown", func() error {
		breakdown = cawosched.CostBreakdownZones(inst, solved.Schedule, zones)
		return nil
	})
	var entries []cawosched.ScheduleEntry
	run.timed("schedule.export", func() error { entries = cawosched.ExportSchedule(inst, solved.Schedule); return nil })
	var encoded []byte
	run.timed("wire.encode", func() (err error) {
		encoded, err = json.Marshal(&wire.SolveResponse{
			Variant: solved.Variant, Mapping: solved.Mapping, ASAPMakespan: solved.D, Deadline: solved.Deadline,
			Cost: solved.Cost, ASAPCost: solved.ASAPCost, Schedule: entries, Zones: breakdown,
		})
		return err
	})

	// The memoised paths: make sure the solver has seen the request, then
	// time the plan memo and the solve cache answering it.
	if run.err == nil {
		_, run.err = p.solver.Solve(p.bare, req)
	}
	run.timed("solver.plan_hit", func() error {
		if _, hit, err := p.solver.Plan(p.bare, op.wf); err != nil || !hit {
			return fmt.Errorf("plan of a solved workflow: memoised %v, error %v", hit, err)
		}
		return nil
	})
	run.timed("solver.solve_hit", func() error {
		if resp, err := p.solver.Solve(p.bare, req); err != nil || !resp.CacheHit {
			return fmt.Errorf("repeat of a solved request was not a cache hit (error %v)", err)
		}
		return nil
	})
	if run.err == nil {
		res.sample("wire.request_bytes", float64(len(body)))
		res.sample("wire.response_bytes", float64(len(encoded)))
	}
}

// roundValue reduces one round's samples of a metric to the round's
// statistic.
func roundValue(name string, xs []float64) float64 {
	if strings.HasSuffix(name, "_p95") {
		return percentile(xs, 0.95)
	}
	return median(xs)
}

// probeSamples turns a traced round's probes into samples by metric
// name, adding the derived layers: local search is the full scheduler
// run minus the greedy-only run on the same op, the program's tracing
// overhead is the traced run over the bare run, and the unattributed
// remainder is the op's real call minus the layers on its path.
func probeSamples(w workload, r *roundResult) map[string][]float64 {
	out := make(map[string][]float64)
	for _, p := range r.probes {
		for name, d := range p.layers {
			out[layerKey(name)] = append(out[layerKey(name)], d)
		}
		if solve, ok := p.layers["core.solve"]; ok {
			out["core.localsearch_us"] = append(out["core.localsearch_us"], solve-p.layers["core.greedy"])
			out["obs.trace_overhead_pct"] = append(out["obs.trace_overhead_pct"], (p.layers["obs.solve"]-solve)/solve*100)
		}
		rest := p.call
		for _, name := range w.onPath {
			rest -= p.layers[name]
		}
		out[w.unattributed] = append(out[w.unattributed], rest)
	}
	for name, xs := range r.samples {
		out[name] = xs
	}
	return out
}

// perLayerFrom reduces a traced run to the per-layer metrics: the median
// over rounds of each round's statistic, from the untraced rounds where
// they measured the metric and from the traced rounds' probes otherwise.
func (rep *report) perLayerFrom(w workload, plain, traced []*roundResult) {
	var plainViews, tracedViews []map[string][]float64
	for _, r := range plain {
		plainViews = append(plainViews, r.samples)
	}
	for _, r := range traced {
		tracedViews = append(tracedViews, probeSamples(w, r))
	}
	for _, d := range perLayer {
		rep.perLayer[d.name] = 0
		for _, views := range [][]map[string][]float64{plainViews, tracedViews} {
			var perRound []float64
			for _, v := range views {
				if xs := v[d.name]; len(xs) > 0 {
					perRound = append(perRound, roundValue(d.name, xs))
				}
			}
			if len(perRound) > 0 {
				rep.perLayer[d.name] = median(perRound)
				for _, x := range perRound {
					if d.exact && x != perRound[0] {
						rep.problem("%s is %v in one round and %v in another", d.name, perRound[0], x)
					}
				}
				break
			}
		}
	}
	withTrace, without := median(bestPerOp(traced)), median(bestPerOp(plain))
	rep.perLayer["bench.trace_overhead_pct"] = (withTrace - without) / without * 100
	rep.perLayer["process.rss_hwm_mb"] = rssHighWaterMB()
	rep.table = layerTable(w, traced)
}

// layerTable prints means, because means add: the layers on the call's
// path plus the unattributed remainder equal the call exactly.
func layerTable(w workload, traced []*roundResult) string {
	var calls []float64
	sums := make(map[string][]float64)
	for _, r := range traced {
		for _, p := range r.probes {
			calls = append(calls, p.call)
			for name, d := range p.layers {
				sums[name] = append(sums[name], d)
			}
		}
	}
	if len(calls) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: mean over %d probed ops, µs\n", w.name, len(calls))
	rest := mean(calls)
	for _, name := range w.onPath {
		fmt.Fprintf(&b, "  %-28s %12.1f\n", name, mean(sums[name]))
		rest -= mean(sums[name])
	}
	fmt.Fprintf(&b, "  %-28s %12.1f\n", "unattributed", rest)
	fmt.Fprintf(&b, "  %-28s %12.1f\n", "= call", mean(calls))
	var off []string
	for name := range sums {
		if !slices.Contains(w.onPath, name) {
			off = append(off, name)
		}
	}
	sort.Strings(off)
	b.WriteString("  probed beside the path:\n")
	for _, name := range off {
		fmt.Fprintf(&b, "    %-26s %12.1f\n", name, mean(sums[name]))
	}
	return b.String()
}
