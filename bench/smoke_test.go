package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// The open-loop workload starts the running binary as its spinners; under
// go test that binary is the test's.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == spinArg {
		spin()
		return
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the tests hold the code to.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileDeclaresWhatTheCodePrints(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the code %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, decl []declared, defs []metricDef, bounded bool) {
		if len(decl) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(decl), len(defs))
		}
		for i, d := range defs {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			got := decl[i]
			if got.Name != d.name || got.Unit != d.unit || got.Better != better {
				t.Errorf("%s %d: BENCHMARK.json says %+v, the code %s %s %s", kind, i, got, d.name, d.unit, better)
			}
			switch {
			case bounded && (got.Bound == nil || *got.Bound != d.bound):
				t.Errorf("%s: bound in BENCHMARK.json and %v in the code differ", d.name, d.bound)
			case !bounded && got.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd, true)
	same("per_layer", f.PerLayer, perLayer, false)
}

// short is the standard protocol with fewer repetitions.
var short = protocol{setups: 1, minRounds: 2, maxRounds: 2, warmShare: 4, tracedEach: 1}

// TestSmokeAllWorkloads runs the whole protocol, untraced and traced, on
// tiny sizes, and holds the output to the contract: every declared name
// printed exactly once, finite, in its declared unit.
func TestSmokeAllWorkloads(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		w.size = tiny[w.name]
		for _, traced := range []bool{false, true} {
			name, decl := w.name+"/end_to_end", f.EndToEnd
			if traced {
				name, decl = w.name+"/per_layer", f.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				rep, err := runWorkload(w, short, 3, 0, traced, t.TempDir(), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.correct || rep.failed != 0 || rep.attempt == 0 {
					t.Fatalf("correct %v, %d of %d ops failed: %v", rep.correct, rep.failed, rep.attempt, rep.problems)
				}
				defs, got := endToEnd, rep.endToEnd
				if traced {
					defs, got = perLayer, rep.perLayer
				}
				res, err := newResult(defs, got, rep.correct, rep.attempt, rep.failed)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := res.print(&out, w.name, defs); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if len(last.Metrics) != len(decl) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(last.Metrics), len(decl))
				}
				for _, d := range decl {
					v, ok := last.Metrics[d.Name]
					if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s: printed %+v (present %v), declared unit %q", d.Name, v, ok, d.Unit)
					}
					if n := strings.Count(out.String(), "  "+d.Name+" "); n != 1 {
						t.Errorf("%s appears %d times in the table, want once", d.Name, n)
					}
				}
				if traced {
					if _, err := os.Stat(rep.trace); err != nil {
						t.Errorf("span file: %v", err)
					}
					if !strings.Contains(rep.table, "unattributed") || !strings.Contains(rep.table, "= call") {
						t.Errorf("layer table has no unattributed row:\n%s", rep.table)
					}
				} else if e := rep.endToEnd; e["latency_ms_p50"] <= 0 || e["latency_ms_p95"] < e["latency_ms_p50"] || e["ops_per_s"] <= 0 || e["setup_s"] <= 0 || e["carbon_cost_ratio"] <= 0 {
					t.Errorf("end-to-end metrics out of range: %v", e)
				}
			})
		}
	}
}

// TestLayersAddUpToTheCall holds the traced run to its own arithmetic:
// per probed op, the layers on the path plus the unattributed remainder
// are the call.
func TestLayersAddUpToTheCall(t *testing.T) {
	w := solveCold
	w.size = tiny[w.name]
	r, err := w.setup(1, w.size)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	res, err := r.round(r.ops(), newTracer(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.probes) != w.size.ops/w.size.probe {
		t.Fatalf("%d probes, want every %dth of %d ops", len(res.probes), w.size.probe, w.size.ops)
	}
	samples := probeSamples(w, res)
	for i, p := range res.probes {
		sum := samples[w.unattributed][i]
		for _, name := range w.onPath {
			if _, ok := p.layers[name]; !ok {
				t.Fatalf("probe %d has no span for on-path layer %s", i, name)
			}
			sum += p.layers[name]
		}
		if math.Abs(sum-p.call) > 1e-6 {
			t.Errorf("probe %d: layers + unattributed = %v µs, call = %v µs", i, sum, p.call)
		}
	}
}
