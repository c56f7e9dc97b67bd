package wire_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	cawosched "repro"
	"repro/internal/wire"
)

// BenchmarkSolveResponseJSON times the wire format's two halves of a
// served solve on a real answer: decode reads the request body as the
// server does (wire.Decode), decode-reflect reads it with encoding/json's
// strict decoder alone, and encode renders the answer. Each is run on a
// 200- and a 1 000-task workflow solved on the 3-zone cluster.
func BenchmarkSolveResponseJSON(b *testing.B) {
	solver := cawosched.NewSolver(cawosched.SmallZonedCluster(42, 3))
	for _, size := range []struct {
		name  string
		tasks int
	}{{"200", 200}, {"1k", 1000}} {
		wf, err := cawosched.GenerateWorkflow(cawosched.Atacseq, size.tasks, 7)
		if err != nil {
			b.Fatal(err)
		}
		body, err := json.Marshal(&wire.SolveRequest{
			Workflow:      wire.FromDAG(wf),
			Variant:       "pressWR-LS",
			ZoneScenarios: []string{"S1", "S2", "S3"},
			Seed:          7,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := solver.Solve(context.Background(), cawosched.Request{
			Workflow:      wf,
			Variant:       "pressWR-LS",
			ZoneScenarios: []cawosched.Scenario{cawosched.S1, cawosched.S2, cawosched.S3},
			Seed:          7,
		})
		if err != nil {
			b.Fatal(err)
		}
		resp := &wire.SolveResponse{
			Variant: res.Variant, Mapping: res.Mapping, ASAPMakespan: res.D, Deadline: res.Deadline,
			Cost: res.Cost, ASAPCost: res.ASAPCost,
			Schedule: cawosched.ExportSchedule(res.Instance, res.Schedule),
			Zones:    cawosched.CostBreakdownZones(res.Instance, res.Schedule, res.Zones),
			Timings:  res.Timings,
		}

		b.Run("encode-"+size.name, func(b *testing.B) {
			b.ReportAllocs()
			var out []byte
			for b.Loop() {
				out = resp.AppendJSON(out[:0])
			}
			b.SetBytes(int64(len(out)))
		})
		b.Run("decode-"+size.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				var req wire.SolveRequest
				if err := wire.Decode(body, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode-reflect-"+size.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				var req wire.SolveRequest
				dec := json.NewDecoder(bytes.NewReader(body))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
