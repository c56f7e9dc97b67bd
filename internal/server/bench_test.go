package server

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"

	cawosched "repro"
	"repro/internal/wire"
)

// BenchmarkServedHit is the handler's share of the benchmark workload
// serve_hot_200, where it can be profiled: 64 hot bodies (8 workflows of
// 200 tasks under 8 supply seeds each, on the 3-zone cluster) answered
// through Server.ServeHTTP, every op a solve-cache hit.
//
//   - identical sends each body byte for byte again, as a client replaying
//     a request does.
//   - respelled sends the same requests in bytes the server has never
//     seen (a distinct run of trailing whitespace per op), so every op
//     decodes, keys, rebuilds and encodes.
func BenchmarkServedHit(b *testing.B) {
	const (
		workflows, tasks, seeds = 8, 200, 8
		zones                   = 3
	)
	srv := New(cawosched.NewSolver(cawosched.SmallZonedCluster(42, zones)), Config{})
	families := []cawosched.Family{cawosched.Atacseq, cawosched.Bacass, cawosched.Eager, cawosched.Methylseq}
	pop := rand.New(rand.NewPCG(1, 2))
	var bodies [][]byte
	for i := 0; i < workflows; i++ {
		wf, err := cawosched.GenerateWorkflow(families[i%len(families)], tasks, pop.Uint64())
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < seeds; s++ {
			body, err := json.Marshal(&wire.SolveRequest{
				Workflow:      wire.FromDAG(wf),
				Variant:       "pressWR-LS",
				ZoneScenarios: []string{"S1", "S2", "S3"},
				Seed:          pop.Uint64(),
			})
			if err != nil {
				b.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}

	// The recorder's body is reused, so that B/op is the handler's.
	sink := bytes.NewBuffer(make([]byte, 0, 256<<10))
	post := func(body []byte) *httptest.ResponseRecorder {
		sink.Reset()
		rec := httptest.NewRecorder()
		rec.Body = sink
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	// Twice: the solve, then the hit that makes the body a known one.
	for pass := 0; pass < 2; pass++ {
		for _, body := range bodies {
			post(body)
		}
	}

	b.Run("identical", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			post(bodies[i%len(bodies)])
		}
	})
	b.Run("respelled", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; b.Loop(); i++ {
			buf = append(buf[:0], bodies[i%len(bodies)]...)
			for bit := 0; bit < 32; bit++ { // op i, spelled in spaces and tabs
				buf = append(buf, " \t"[i>>bit&1])
			}
			post(buf)
		}
	})
	if st := srv.solver.Stats(); st.SolveMisses != int64(len(bodies)) {
		b.Fatalf("%d solve misses, want one per body (%d): not every op was a hit", st.SolveMisses, len(bodies))
	}
}
