package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one number the benchmark prints. The lists below are
// the same lists BENCHMARK.json declares; a test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	higher bool    // better when higher
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	exact  bool    // a count that must repeat bit for bit on equal inputs
}

// A bound is three to five times the spread (interquartile distance over
// median) the metric shows on its noisiest workload over ten runs in a
// quiet hour of a shared host, and still above the spread of a noisy
// hour; README.md has both.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "latency_ms_p50", unit: "ms", bound: 0.20},
	{name: "latency_ms_p95", unit: "ms", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", higher: true, bound: 0.20},
	{name: "carbon_cost_ratio", unit: "ratio", bound: 0.02, exact: true},
}

// perLayer is ordered as <module>.<what>. A layer a workload does not
// load reads 0 there.
var perLayer = []metricDef{
	{name: "wire.decode_us", unit: "us"},
	{name: "wire.encode_us", unit: "us"},
	{name: "wire.request_bytes", unit: "bytes", exact: true},
	{name: "wire.response_bytes", unit: "bytes", exact: true},
	{name: "dag.fingerprint_us", unit: "us"},
	{name: "power.zone_digest_us", unit: "us"},
	{name: "power.supply_build_us", unit: "us"},
	{name: "heft.map_us", unit: "us"},
	{name: "ceg.build_us", unit: "us"},
	{name: "solver.plan_hit_us", unit: "us"},
	{name: "solver.solve_hit_us", unit: "us"},
	{name: "solver.plan_hit_ratio", unit: "ratio", higher: true, exact: true},
	{name: "solver.solve_hit_ratio", unit: "ratio", higher: true, exact: true},
	{name: "solver.coalesced", unit: "count", exact: true},
	{name: "solver.stage_us.plan", unit: "us"},
	{name: "solver.stage_us.supply", unit: "us"},
	{name: "solver.stage_us.cache", unit: "us"},
	{name: "solver.stage_us.map", unit: "us"},
	{name: "solver.stage_us.schedule", unit: "us"},
	{name: "solver.unattributed_us", unit: "us"},
	{name: "core.greedy_us", unit: "us"},
	{name: "core.localsearch_us", unit: "us"},
	{name: "core.ls_rounds", unit: "count", exact: true},
	{name: "core.ls_moves", unit: "count", exact: true},
	{name: "core.ls_scans", unit: "count", exact: true},
	{name: "core.greedy_cost_ratio", unit: "ratio", exact: true},
	{name: "schedule.cost_us", unit: "us"},
	{name: "schedule.validate_us", unit: "us"},
	{name: "schedule.breakdown_us", unit: "us"},
	{name: "schedule.export_us", unit: "us"},
	{name: "greenheft.mapsearch_us", unit: "us"},
	{name: "server.roundtrip_floor_us", unit: "us"},
	{name: "server.unattributed_us", unit: "us"},
	{name: "serve_mix.hot_ms_p50", unit: "ms"},
	{name: "serve_mix.fresh_ms_p50", unit: "ms"},
	{name: "serve_mix.mapsearch_ms_p50", unit: "ms"},
	{name: "serve_mix.wait_ms_p95", unit: "ms"},
	{name: "tenancy.submit_us", unit: "us"},
	{name: "tenancy.cancel_us", unit: "us"},
	{name: "tenancy.rebalance_us", unit: "us"},
	{name: "tenancy.get_us", unit: "us"},
	{name: "tenancy.residual_us", unit: "us"},
	{name: "tenancy.solve_us", unit: "us"},
	{name: "tenancy.find_offset_us", unit: "us"},
	{name: "tenancy.unattributed_us", unit: "us"},
	{name: "tenancy.admitted", unit: "count", higher: true, exact: true},
	{name: "tenancy.rejected", unit: "count", exact: true},
	{name: "tenancy.rebalance_moves", unit: "count", higher: true, exact: true},
	{name: "tenancy.saved_units", unit: "count", higher: true, exact: true},
	{name: "tenancy.ledger_claims", unit: "count", exact: true},
	{name: "obs.trace_overhead_pct", unit: "%"},
	{name: "process.alloc_kb_per_op", unit: "kB"},
	{name: "process.gc_cycles_per_kop", unit: "1/kop"},
	{name: "process.rss_hwm_mb", unit: "MB"},
	{name: "bench.generator_late_ms_p95", unit: "ms"},
	{name: "bench.trace_overhead_pct", unit: "%"},
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as the last line of its output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// newResult keeps exactly the metrics defs names, in their units. A
// missing or non-finite number is an error: the contract wants every
// name on every run.
func newResult(defs []metricDef, got map[string]float64, correct bool, attempted, failed int) (*result, error) {
	r := &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]value, len(defs))}
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	return r, nil
}

// print writes the readable table and then the result as one JSON line.
func (r *result) print(w io.Writer, workload string, defs []metricDef) error {
	fmt.Fprintf(w, "%s: attempted %d, failed %d, correct %v\n", workload, r.Attempted, r.Failed, r.Correct)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// layerKey maps a span name such as "wire.decode" to its metric name.
func layerKey(spanName string) string { return spanName + "_us" }
