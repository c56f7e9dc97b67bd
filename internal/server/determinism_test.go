package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	cawosched "repro"
	"repro/internal/wire"
)

// TestSearchWorkersByteIdenticalResponses pins the service-level face of
// the determinism guarantee: the same solve request answered at
// GOMAXPROCS 1, 4, and the test's own setting produces
// byte-identical wire responses — the host's parallelism is pure
// mechanism, invisible on the wire. The request uses the map-search
// two-pass pipeline, the longest path a single solve takes (its
// candidates run one after another).
// Run under -race -count=2 in CI.
func TestSearchWorkersByteIdenticalResponses(t *testing.T) {
	wreq := pinnedWireRequest(t)
	wreq.Mapping = "map-search"

	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []byte
	for _, procs := range counts {
		runtime.GOMAXPROCS(procs)
		// A fresh server (and solver) per setting: every response is
		// computed, never cache-served, so the comparison is between real
		// scheduler runs.
		_, ts := newTestServer(t, Config{})
		resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/solve", wreq)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GOMAXPROCS=%d: status %d: %s", procs, resp.StatusCode, raw)
		}
		var sr wire.SolveResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatalf("GOMAXPROCS=%d: bad response: %v", procs, err)
		}
		if sr.CacheHit {
			t.Fatalf("GOMAXPROCS=%d: response unexpectedly cache-served", procs)
		}
		if len(sr.Timings) == 0 {
			t.Fatalf("GOMAXPROCS=%d: response carries no stage timings", procs)
		}
		raw = stripTimings(t, raw)
		if want == nil {
			want = raw
			continue
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("GOMAXPROCS=%d: response bytes differ from GOMAXPROCS=%d:\n%s\nvs\n%s",
				procs, counts[0], raw, want)
		}
	}
}

// TestWarmResponseMatchesCold pins that a cache-served response equals
// the computed one except for the hit flags themselves, and that the pair
// counts one hit and one miss. Run under -race -count=2 in CI.
func TestWarmResponseMatchesCold(t *testing.T) {
	wreq := pinnedWireRequest(t)
	solver := cawosched.NewSolver(cawosched.SmallCluster(7))
	ts := httptest.NewServer(New(solver, Config{}))
	t.Cleanup(ts.Close)

	var wantCold, wantWarm []byte
	for pass := 0; pass < 2; pass++ {
		resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/solve", wreq)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pass %d: status %d: %s", pass, resp.StatusCode, raw)
		}
		var sr wire.SolveResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatalf("pass %d: bad response: %v", pass, err)
		}
		if sr.CacheHit != (pass == 1) {
			t.Fatalf("pass %d: cache_hit = %v", pass, sr.CacheHit)
		}
		if pass == 0 {
			wantCold = stripTimings(t, raw)
		} else {
			wantWarm = stripTimings(t, raw)
		}
	}
	if st := solver.Stats(); st.SolveHits != 1 || st.SolveMisses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}

	// Warm and cold responses agree on everything but the hit flags (the
	// warm pass also hits the plan memo).
	var m map[string]json.RawMessage
	if err := json.Unmarshal(wantWarm, &m); err != nil {
		t.Fatal(err)
	}
	if string(m["cache_hit"]) != "true" || string(m["plan_cache_hit"]) != "true" {
		t.Fatalf("warm hit flags: cache_hit=%s plan_cache_hit=%s", m["cache_hit"], m["plan_cache_hit"])
	}
	m["cache_hit"] = json.RawMessage("false")
	m["plan_cache_hit"] = json.RawMessage("false")
	rewritten, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var mc map[string]json.RawMessage
	if err := json.Unmarshal(wantCold, &mc); err != nil {
		t.Fatal(err)
	}
	recold, err := json.Marshal(mc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewritten, recold) {
		t.Errorf("warm response differs from cold beyond cache_hit:\n%s\nvs\n%s", rewritten, recold)
	}
}

// stripTimings removes the timings field — wall-clock stage durations are
// the one legitimately nondeterministic part of the response — and
// re-serializes, so the byte comparison covers everything else.
func stripTimings(t *testing.T, raw []byte) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("re-parsing response: %v", err)
	}
	delete(m, "timings")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
