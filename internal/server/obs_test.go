package server

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/wire"
)

// TestMetricsExpositionValid drives a mix of traffic — a computed solve, a
// cache hit, a byte-identical repeat of it, and an error — then scrapes
// /metrics and checks that the exposition parses under the Prometheus
// text-format rules and carries the observability families added by the
// instrumented layers.
func TestMetricsExpositionValid(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Computed solve, then the identical request again (cache hit), and
	// once more (answered from the body index).
	for i := 0; i < 3; i++ {
		resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/solve", pinnedWireRequest(t))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d: %s", i, resp.StatusCode, raw)
		}
	}
	// An error, so the outcome="error" series exists.
	bad := pinnedWireRequest(t)
	bad.Variant = "no-such-variant"
	if resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/solve", bad); resp.StatusCode == http.StatusOK {
		t.Fatal("bad variant unexpectedly succeeded")
	}

	mresp, mraw := getBody(t, ts.Client(), ts.URL+"/metrics")
	if ct := mresp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	if err := obs.ValidateExposition(string(mraw)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, mraw)
	}
	// The index holds the one request and its answer up to the timings.
	if !regexp.MustCompile(`(?m)^schedd_repeat_index_bytes [1-9][0-9]{3,}$`).Match(mraw) {
		t.Error("schedd_repeat_index_bytes is missing, or under a kilobyte with a body remembered")
	}
	for _, want := range []string{
		`schedd_solve_latency_seconds_count{outcome="ok"} 1`,
		`schedd_solve_latency_seconds_count{outcome="cache_hit"} 2`,
		`schedd_solve_latency_seconds_count{outcome="error"} 1`,
		`schedd_stage_latency_seconds_count{stage="plan"}`,
		`schedd_stage_latency_seconds_count{stage="schedule"}`,
		`schedd_solves_total{variant="pressWR-LS",mapping="heft",outcome="ok"} 1`,
		`schedd_solves_total{variant="pressWR-LS",mapping="heft",outcome="cache_hit"} 2`,
		`schedd_solve_cache_hits_total 2`,
		`schedd_solve_repeats_total 1`,
		`schedd_carbon_green_units_total{zone=`,
		`schedd_carbon_brown_units_total{zone=`,
		`schedd_build_info{go_version=`,
	} {
		if !strings.Contains(string(mraw), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestRequestIDEcho: a client-supplied X-Request-ID is echoed back and keys
// the request's trace; absent one, the server mints an ID.
func TestRequestIDEcho(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	data, err := json.Marshal(pinnedWireRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "req-e2e-42")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Drained, so the handler has returned and its trace is published.
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "req-e2e-42" {
		t.Errorf("X-Request-ID echoed as %q, want req-e2e-42", got)
	}

	// Without the header, the server mints one.
	resp2, _ := postJSON(t, ts.Client(), ts.URL+"/v1/solve", pinnedWireRequest(t))
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID minted for bare request")
	}

	// An ID is echoed only if it is 1–128 bytes of visible ASCII: the
	// server keeps it in the trace ring and the log, so a client does not
	// get to choose how much of either it fills. Otherwise one is minted.
	for _, c := range []struct {
		name, id string
		echoed   bool
	}{
		{"128 bytes", strings.Repeat("a", 128), true},
		{"129 bytes", strings.Repeat("a", 129), false},
		{"64 kB", strings.Repeat("a", 64<<10), false},
		{"inner space", "req 42", false},
		{"inner tab", "req\t42", false},
		{"non-ASCII", "req-é", false},
	} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/variants", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-ID", c.id)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got := resp.Header.Get("X-Request-ID")
		if c.echoed && got != c.id {
			t.Errorf("%s: echoed as %q, want it back unchanged", c.name, got)
		}
		if !c.echoed && (got == c.id || !validRequestID(got)) {
			t.Errorf("%s: answered with X-Request-ID %.40q, want a minted one", c.name, got)
		}
	}

	// The supplied ID keys the trace in /debug/traces.
	_, traw := getBody(t, ts.Client(), ts.URL+"/debug/traces")
	var tresp obs.TracesResponse
	if err := json.Unmarshal(traw, &tresp); err != nil {
		t.Fatalf("parsing traces: %v\n%s", err, traw)
	}
	found := false
	for _, tr := range tresp.Traces {
		if tr.ID == "req-e2e-42" {
			found = true
		}
	}
	if !found {
		t.Errorf("no trace with the supplied request ID:\n%s", traw)
	}
}

// TestDebugTraces pins the span tree of a traced solve: the root is the
// route pattern, with a solve child whose children are exactly the stages
// the response's timings name (one vocabulary: obs.Stage*); the schedule
// span nests the greedy and local-search phases. A repeated request leaves
// a trace whose cache span records the hit; repeated once more it is
// answered from the body index, having run the two cache consults only.
func TestDebugTraces(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var timed [3][]string // per request: its timings' stage names, in order
	for i := 0; i < 3; i++ {
		resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/solve", pinnedWireRequest(t))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d: %s", i, resp.StatusCode, raw)
		}
		var sr wire.SolveResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatal(err)
		}
		for _, st := range sr.Timings {
			timed[i] = append(timed[i], st.Stage)
		}
	}
	want := [3][]string{
		{obs.StagePlan, obs.StageSupply, obs.StageCache, obs.StageSchedule},
		{obs.StagePlan, obs.StageSupply, obs.StageCache},
		{obs.StagePlan, obs.StageCache},
	}
	if !reflect.DeepEqual(timed, want) {
		t.Fatalf("timings name stages %v, want %v", timed, want)
	}

	_, traw := getBody(t, ts.Client(), ts.URL+"/debug/traces")
	var tresp obs.TracesResponse
	if err := json.Unmarshal(traw, &tresp); err != nil {
		t.Fatalf("parsing traces: %v\n%s", err, traw)
	}
	traces := tresp.Traces
	if len(traces) != 3 {
		t.Fatalf("got %d traces, want 3:\n%s", len(traces), traw)
	}

	// Traces are served newest first: traces[2] is the computed solve with
	// the full stage tree, traces[1] the cache hit, traces[0] the repeat.
	root := traces[2].Root
	if root.Name != "POST /v1/solve" {
		t.Fatalf("root span %q, want POST /v1/solve", root.Name)
	}
	solve := childNamed(root, "solve")
	if solve == nil {
		t.Fatalf("no solve span under root:\n%s", traw)
	}
	if got := childNames(solve); !reflect.DeepEqual(got, timed[0]) {
		t.Errorf("solve span's children are %v, the response's timings %v", got, timed[0])
	}
	sched := childNamed(solve, obs.StageSchedule)
	if sched == nil {
		t.Fatalf("no schedule span under solve:\n%s", traw)
	}
	for _, phase := range []string{"greedy", "local-search"} {
		if childNamed(sched, phase) == nil {
			t.Errorf("schedule span missing %q child", phase)
		}
	}

	// The cache hit (traces[1]) and the repeat (traces[0]): recorded on the
	// cache span. The repeat's solve and plan spans say what the hit's say.
	var solves [3]*obs.SpanData
	for i := 1; i <= 2; i++ {
		solve := childNamed(traces[2-i].Root, "solve")
		if solve == nil {
			t.Fatalf("request %d: no solve span:\n%s", i, traw)
		}
		if got := childNames(solve); !reflect.DeepEqual(got, timed[i]) {
			t.Fatalf("request %d: solve span's children are %v, the response's timings %v", i, got, timed[i])
		}
		cache := childNamed(solve, obs.StageCache)
		if hit, _ := cache.Attrs["hit"].(bool); !hit {
			t.Errorf("request %d: cache span hit=%v, want true", i, cache.Attrs["hit"])
		}
		if repeat, _ := cache.Attrs["repeat"].(bool); repeat != (i == 2) {
			t.Errorf("request %d: cache span repeat=%v", i, cache.Attrs["repeat"])
		}
		solves[i] = solve
	}
	if !reflect.DeepEqual(solves[2].Attrs, solves[1].Attrs) {
		t.Errorf("repeat's solve span attrs %v, the cache hit's %v", solves[2].Attrs, solves[1].Attrs)
	}
	if got, want := childNamed(solves[2], obs.StagePlan).Attrs, childNamed(solves[1], obs.StagePlan).Attrs; !reflect.DeepEqual(got, want) {
		t.Errorf("repeat's plan span attrs %v, the cache hit's %v", got, want)
	}

	// min_ms filters: nothing here takes a minute.
	_, fraw := getBody(t, ts.Client(), ts.URL+"/debug/traces?min_ms=60000")
	var filtered obs.TracesResponse
	if err := json.Unmarshal(fraw, &filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered.Traces) != 0 {
		t.Errorf("min_ms=60000 returned %d traces, want 0", len(filtered.Traces))
	}
}

func childNames(s *obs.SpanData) []string {
	var names []string
	for _, c := range s.Children {
		names = append(names, c.Name)
	}
	return names
}

func childNamed(s *obs.SpanData, name string) *obs.SpanData {
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// TestConcurrentScrape hammers /metrics and /debug/traces while solves are
// in flight — meaningful under -race: render walks the same atomics and
// span trees the request path is writing.
func TestConcurrentScrape(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				req := pinnedWireRequest(t)
				req.Seed = uint64(w*100 + i) // distinct seeds defeat the solve cache
				resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/solve", req)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("worker %d solve %d: status %d: %s", w, i, resp.StatusCode, raw)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			_, mraw := getBody(t, ts.Client(), ts.URL+"/metrics")
			if err := obs.ValidateExposition(string(mraw)); err != nil {
				t.Errorf("scrape %d invalid: %v", i, err)
				return
			}
			getBody(t, ts.Client(), ts.URL+"/debug/traces")
		}
	}()
	wg.Wait()
}
