package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	cawosched "repro"
	"repro/internal/obs"
	"repro/internal/solve"
	"repro/internal/wire"
)

// The repeat path (Solver.Recall) must be indistinguishable from the
// decode → Solve → encode path except in time. These tests hold a stream
// of byte-identical repeats against the same stream in bytes the server
// has never seen, and walk every way a remembered body can go stale.

// postBytes posts a raw body to /v1/solve and returns the status and the
// answer.
func postBytes(t testing.TB, ts *httptest.Server, body []byte) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, raw
}

// repeatBodies is a deterministic request population on a 2-zone cluster:
// workflows × supply seeds × {fixed mapping, map-search}, encoded.
func repeatBodies(t testing.TB, workflows, supplies int) [][]byte {
	t.Helper()
	families := []cawosched.Family{cawosched.Atacseq, cawosched.Bacass, cawosched.Eager, cawosched.Methylseq}
	var bodies [][]byte
	for w := 0; w < workflows; w++ {
		wf, err := cawosched.GenerateWorkflow(families[w%len(families)], 40, uint64(100+w))
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < supplies; s++ {
			for _, mapping := range []string{"", cawosched.MapSearchName} {
				body, err := json.Marshal(&wire.SolveRequest{
					Workflow:       wire.FromDAG(wf),
					Variant:        "pressWR-LS",
					Mapping:        mapping,
					ZoneScenarios:  []string{"S1", "S3"},
					DeadlineFactor: 1.5,
					Seed:           uint64(7 + s),
				})
				if err != nil {
					t.Fatal(err)
				}
				bodies = append(bodies, body)
			}
		}
	}
	return bodies
}

func newRepeatServer(t testing.TB, opts ...solve.SolverOption) (*solve.Solver, *httptest.Server) {
	t.Helper()
	solver := solve.NewSolver(cawosched.SmallZonedCluster(7, 2), opts...)
	ts := httptest.NewServer(New(solver, Config{}))
	t.Cleanup(ts.Close)
	return solver, ts
}

// timingsKey opens the last member of a rendered wire.SolveResponse: what
// comes before it is the same for every answer to the same request.
const timingsKey = ",\n  \"timings\": ["

// beforeTimings cuts a rendered answer where its timings begin.
func beforeTimings(t testing.TB, raw []byte) []byte {
	t.Helper()
	cut := bytes.LastIndex(raw, []byte(timingsKey))
	if cut < 0 {
		t.Fatalf("answer has no timings member:\n%s", raw)
	}
	return raw[:cut]
}

// seconds matches the samples of the wall-clock histograms that differ
// between any two runs.
var seconds = regexp.MustCompile(`^schedd_\w+_seconds_(sum|bucket)`)

// samples parses an exposition into sample → value, leaving out what the
// two sides of the differential test may disagree on: wall-clock sums and
// buckets, how often a supply was built, and the index's own two series.
func samples(exposition []byte) map[string]string {
	out := make(map[string]string)
	for _, line := range strings.Split(string(exposition), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:i]
		switch {
		case seconds.MatchString(name),
			name == `schedd_stage_latency_seconds_count{stage="supply"}`,
			name == "schedd_repeat_index_bytes", name == "schedd_solve_repeats_total":
			continue
		}
		out[name] = line[i+1:]
	}
	return out
}

// TestRepeatDifferential plays one request stream against two fresh
// servers: once with every sending of a request byte-identical, so that
// from the third on it is recalled, and once with the k-th sending
// followed by k newlines — the same request in bytes never seen, which
// can only decode, solve and encode. The answers, the solver's counters
// and the exposition must not tell the two apart.
func TestRepeatDifferential(t *testing.T) {
	bodies := repeatBodies(t, 3, 2)
	const sendings = 4

	type side struct {
		answers [][]byte
		stats   cawosched.SolverStats
		metrics map[string]string
	}
	play := func(respell bool) side {
		solver, ts := newRepeatServer(t)
		var s side
		for k := 1; k <= sendings; k++ {
			for i := range bodies {
				body := bodies[(i+k)%len(bodies)] // a different interleaving each round
				if respell {
					body = append(bytes.Clone(body), strings.Repeat("\n", k)...)
				}
				status, raw := postBytes(t, ts, body)
				if status != http.StatusOK {
					t.Fatalf("respell=%v sending %d of request %d: status %d: %s", respell, k, (i+k)%len(bodies), status, raw)
				}
				s.answers = append(s.answers, raw)
			}
		}
		s.stats = solver.Stats()
		_, exposition := getBody(t, ts.Client(), ts.URL+"/metrics")
		if err := obs.ValidateExposition(string(exposition)); err != nil {
			t.Fatalf("respell=%v: exposition invalid: %v", respell, err)
		}
		s.metrics = samples(exposition)
		return s
	}
	identical, respelled := play(false), play(true)

	if want := int64((sendings - 2) * len(bodies)); identical.stats.SolveRepeats != want || respelled.stats.SolveRepeats != 0 {
		t.Fatalf("repeats: %d on identical bytes (want %d: every sending after the second), %d on respelled (want 0)",
			identical.stats.SolveRepeats, want, respelled.stats.SolveRepeats)
	}
	if identical.stats.RepeatIndexBytes == 0 {
		t.Error("identical side reports an empty index")
	}
	for i := range identical.answers {
		a, b := identical.answers[i], respelled.answers[i]
		if !bytes.Equal(beforeTimings(t, a), beforeTimings(t, b)) {
			t.Fatalf("answer %d differs before its timings:\n%s\nvs\n%s", i, a, b)
		}
		// A recalled answer is prefix + a hand-rendered tail: the whole
		// must be what the encoder makes of the same response.
		var sr wire.SolveResponse
		if err := json.Unmarshal(a, &sr); err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
		var again bytes.Buffer
		encodeJSON(&again, &sr)
		if !bytes.Equal(a, again.Bytes()) {
			t.Fatalf("answer %d is not the encoder's rendering of itself; it ends\n%q\nthe encoder's\n%q",
				i, a[len(beforeTimings(t, a)):], again.Bytes()[len(beforeTimings(t, again.Bytes())):])
		}
	}

	is, rs := identical.stats, respelled.stats
	is.SolveRepeats, is.RepeatIndexBytes = 0, 0
	rs.SolveRepeats, rs.RepeatIndexBytes = 0, 0
	if is != rs {
		t.Errorf("solver stats differ:\nidentical %+v\nrespelled %+v", is, rs)
	}
	if !reflect.DeepEqual(identical.metrics, respelled.metrics) {
		for name, v := range identical.metrics {
			if w, ok := respelled.metrics[name]; !ok || v != w {
				t.Errorf("sample %s: %s on identical bytes, %q on respelled", name, v, w)
			}
		}
		for name := range respelled.metrics {
			if _, ok := identical.metrics[name]; !ok {
				t.Errorf("sample %s only on respelled bytes", name)
			}
		}
	}
}

// sighting is what one answer says about how it was produced.
type sighting struct {
	PlanHit  bool `json:"plan_cache_hit"`
	CacheHit bool `json:"cache_hit"`
	Timings  []wire.StageTiming
	repeat   bool // answered by Solver.Recall
}

func (s sighting) stages() string {
	var names []string
	for _, st := range s.Timings {
		names = append(names, st.Stage)
	}
	return strings.Join(names, " ")
}

// TestRepeatResidency: a remembered body is recalled only while the plan
// entry and the solve entry that answered it are the resident ones.
// Whatever removes either — a reset of either cache, an eviction under a
// shrunk limit, disabling the cache — hands the next byte-identical
// request to the ordinary path, whose flags are what the client reads;
// that path's next full hit remembers the body again.
func TestRepeatResidency(t *testing.T) {
	solver, ts := newRepeatServer(t)
	bodies := repeatBodies(t, 2, 1)
	body, other := bodies[0], bodies[2] // two workflows, fixed mapping

	send := func(body []byte) sighting {
		t.Helper()
		before := solver.Stats().SolveRepeats
		status, raw := postBytes(t, ts, body)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, raw)
		}
		var s sighting
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Fatal(err)
		}
		s.repeat = solver.Stats().SolveRepeats > before
		return s
	}
	const (
		slow   = "plan supply cache"
		solved = "plan supply cache schedule"
		recall = "plan cache"
	)
	expect := func(when string, planHit, cacheHit, repeat bool, stages string) {
		t.Helper()
		got := send(body)
		if got.PlanHit != planHit || got.CacheHit != cacheHit || got.repeat != repeat || got.stages() != stages {
			t.Fatalf("%s: plan_cache_hit=%v cache_hit=%v recalled=%v stages %q; want %v %v %v %q",
				when, got.PlanHit, got.CacheHit, got.repeat, got.stages(), planHit, cacheHit, repeat, stages)
		}
	}
	// After any loss of residency the ordinary path answers twice — once
	// with whatever is gone missing, once as the full hit that remembers
	// the body — and the third sending is recalled.
	recovers := func(when string) {
		t.Helper()
		expect(when+", full hit", true, true, false, slow)
		expect(when+", recalled", true, true, true, recall)
		expect(when+", recalled again", true, true, true, recall)
	}

	expect("first sighting", false, false, false, solved)
	recovers("warm")

	solver.ResetSolveCache()
	if held := solver.Stats().RepeatIndexBytes; held != 0 {
		t.Errorf("ResetSolveCache left %d bytes in the index", held)
	}
	expect("after ResetSolveCache", true, false, false, solved)
	recovers("after ResetSolveCache")

	solver.ResetPlans()
	expect("after ResetPlans", false, true, false, slow)
	recovers("after ResetPlans")

	// One entry: another request's solve evicts ours. That first sighting
	// does not enter the index, which may well still hold our body (both
	// share the one-entry bound, and the other body is not remembered).
	solver, ts = newRepeatServer(t, solve.WithSolveCacheLimit(1))
	expect("one entry, first sighting", false, false, false, solved)
	recovers("one entry")
	if got := send(other); got.CacheHit || got.repeat {
		t.Fatalf("other request: cache_hit=%v recalled=%v on its first sighting", got.CacheHit, got.repeat)
	}
	expect("after eviction", true, false, false, solved)
	recovers("after eviction")

	solver, ts = newRepeatServer(t, solve.WithSolveCacheLimit(0))
	expect("caching off, first sighting", false, false, false, solved)
	for i := 0; i < 3; i++ {
		expect("caching off", true, false, false, solved)
	}
	if held := solver.Stats().RepeatIndexBytes; held != 0 {
		t.Errorf("caching off: %d bytes in the index", held)
	}
}

// TestRepeatConcurrentResets: 8 clients replay 4 hot bodies while another
// goroutine keeps resetting the solve cache and the plan memo under them.
// Whichever path answers — recall, hit, coalesced, or a fresh solve — the
// answer is the single-threaded one but for the flags that say which.
func TestRepeatConcurrentResets(t *testing.T) {
	before := runtime.NumGoroutine()
	solver := cawosched.NewSolver(cawosched.SmallZonedCluster(7, 2))
	srv := New(solver, Config{})
	ts := httptest.NewServer(srv)
	bodies := repeatBodies(t, 2, 1) // 2 workflows × {fixed, map-search}

	// What an answer must say whatever path produced it.
	canonical := func(raw []byte) []byte {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Errorf("bad answer: %v: %s", err, raw)
			return nil
		}
		for _, k := range []string{"timings", "cache_hit", "plan_cache_hit", "coalesced"} {
			delete(m, k)
		}
		out, err := json.Marshal(m)
		if err != nil {
			t.Error(err)
		}
		return out
	}
	reference := make([][]byte, len(bodies))
	for i, body := range bodies {
		status, raw := postBytes(t, ts, body)
		if status != http.StatusOK {
			t.Fatalf("reference %d: status %d: %s", i, status, raw)
		}
		reference[i] = canonical(raw)
	}

	const clients, rounds = 8, 40
	var workers, resetter sync.WaitGroup
	stop := make(chan struct{})
	resetter.Add(1)
	go func() {
		defer resetter.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				solver.ResetSolveCache()
			} else {
				solver.ResetPlans()
			}
			time.Sleep(200 * time.Microsecond) // lets hits and recalls happen between resets
		}
	}()
	for c := 0; c < clients; c++ {
		workers.Add(1)
		go func(c int) {
			defer workers.Done()
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(bodies)
				status, raw := postBytes(t, ts, bodies[i])
				if status != http.StatusOK {
					t.Errorf("client %d round %d: status %d: %s", c, r, status, raw)
					return
				}
				if got := canonical(raw); !bytes.Equal(got, reference[i]) {
					t.Errorf("client %d round %d, request %d:\n%s\nwant\n%s", c, r, i, got, reference[i])
					return
				}
			}
		}(c)
	}
	workers.Wait()
	close(stop)
	resetter.Wait()
	st := solver.Stats()
	t.Logf("%d solves: %d hits of which %d recalled, %d misses, %d coalesced",
		st.Solves, st.SolveHits, st.SolveRepeats, st.SolveMisses, st.SolveCoalesced)

	drainAndCheckLeaks(t, srv, ts, before)
}
