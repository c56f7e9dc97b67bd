package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	cawosched "repro"
	"repro/internal/solve"
	"repro/internal/wire"
)

// doRequest issues one method/URL/body request and returns status + body.
func doRequest(t testing.TB, client *http.Client, method, url, contentType string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// TestPeerCacheHandlers pins the cache-exchange endpoints: round-trip
// through the tier-local store, 404 on miss, 400 on malformed keys or
// empty bodies, 501 without a peer tier.
func TestPeerCacheHandlers(t *testing.T) {
	tier, err := solve.NewPeerTier([]string{"h1:8080"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	solver := solve.NewSolver(cawosched.SmallCluster(7), solve.WithCacheTier(tier))
	ts := httptest.NewServer(New(solver, Config{}))
	defer ts.Close()
	client := ts.Client()
	url := ts.URL + wire.CachePathPrefix

	record := []byte(`{"fp":1}`)
	if status, body := doRequest(t, client, http.MethodPut, url+"abc123", wire.CacheContentType, record); status != http.StatusNoContent {
		t.Fatalf("PUT = %d: %s", status, body)
	}
	if data, ok := tier.Local().Get(context.Background(), "abc123"); !ok || string(data) != string(record) {
		t.Fatalf("store after PUT: %q, %v", data, ok)
	}
	if status, body := doRequest(t, client, http.MethodGet, url+"abc123", "", nil); status != http.StatusOK || string(body) != string(record) {
		t.Errorf("GET = %d, %q; want 200 with the record", status, body)
	}
	status, body := doRequest(t, client, http.MethodGet, url+"feedface", "", nil)
	if status != http.StatusNotFound || !strings.Contains(string(body), "not_found") {
		t.Errorf("GET miss = %d, %s; want 404 not_found", status, body)
	}
	for _, key := range []string{"UPPER", "0123456789abcdef0", "nothex!"} {
		if status, _ := doRequest(t, client, http.MethodGet, url+key, "", nil); status != http.StatusBadRequest {
			t.Errorf("GET %q = %d, want 400", key, status)
		}
		if status, _ := doRequest(t, client, http.MethodPut, url+key, wire.CacheContentType, record); status != http.StatusBadRequest {
			t.Errorf("PUT %q = %d, want 400", key, status)
		}
	}
	if status, _ := doRequest(t, client, http.MethodPut, url+"abc123", wire.CacheContentType, nil); status != http.StatusBadRequest {
		t.Errorf("empty-body PUT = %d, want 400", status)
	}

	// Without a peer tier the endpoints answer 501 unsupported.
	_, plain := newTestServer(t, Config{})
	status, body = doRequest(t, plain.Client(), http.MethodGet, plain.URL+wire.CachePathPrefix+"abc123", "", nil)
	if status != http.StatusNotImplemented || !strings.Contains(string(body), "unsupported") {
		t.Errorf("no-tier GET = %d, %s; want 501 unsupported", status, body)
	}
}

// TestPeerTierFromSolver: a server over a solver built with a PeerTier
// serves the cache exchange from that tier's local store and mirrors its
// per-peer counters onto /metrics, with no server configuration naming
// the tier.
func TestPeerTierFromSolver(t *testing.T) {
	ctx := context.Background()
	tier, err := solve.NewPeerTier([]string{"h1:8080", "h2:8080"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	solver := solve.NewSolver(cawosched.SmallCluster(7), solve.WithCacheTier(tier))
	if solver.PeerTier() != tier {
		t.Fatal("the solver does not report the peer tier it was built with")
	}
	ts := httptest.NewServer(New(solver, Config{}))
	defer ts.Close()
	url := ts.URL + wire.CachePathPrefix

	if status, body := doRequest(t, ts.Client(), http.MethodPut, url+"c0ffee", wire.CacheContentType, []byte(`{"fp":2}`)); status != http.StatusNoContent {
		t.Fatalf("PUT = %d: %s", status, body)
	}
	if data, ok := tier.Local().Get(ctx, "c0ffee"); !ok || string(data) != `{"fp":2}` {
		t.Errorf("the PUT did not reach the tier's local store: %q, %v", data, ok)
	}
	tier.Local().Put(ctx, "beef", []byte(`{"fp":3}`))
	if status, body := doRequest(t, ts.Client(), http.MethodGet, url+"beef", "", nil); status != http.StatusOK || string(body) != `{"fp":3}` {
		t.Errorf("GET = %d, %q; want 200 with the record put into the local store", status, body)
	}
	_, metrics := doRequest(t, ts.Client(), http.MethodGet, ts.URL+"/metrics", "", nil)
	for _, peer := range []string{"h1:8080", "h2:8080"} {
		if want := `schedd_cache_tier_breaker_open{peer="` + peer + `"} 0`; !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}

	if pt := solve.NewSolver(cawosched.SmallCluster(7), solve.WithCacheTier(solve.NewMemoryTier(0))).PeerTier(); pt != nil {
		t.Error("a solver over a MemoryTier reports a peer tier")
	}
}

// TestServerFleetCacheExchange is the fleet acceptance test at the server
// layer: three schedd instances sharing a peer ring share warm solves.
// Requests solved on A are, at their first sight on B and on C, tier hits
// (CacheHit over the wire, TierHits in stats, per-peer hits on /metrics)
// with zero tier errors or timeouts. A solves until B and C each own a
// record, so each reader fetches at least one key owned by neither the
// solver nor itself.
func TestServerFleetCacheExchange(t *testing.T) {
	// The ring is fixed at construction, so every listener is bound before
	// any tier is built.
	const n = 3
	servers := make([]*httptest.Server, n)
	hosts := make([]string, n)
	for i := range servers {
		servers[i] = httptest.NewUnstartedServer(nil)
		hosts[i] = servers[i].Listener.Addr().String()
	}
	tiers := make([]*solve.PeerTier, n)
	solvers := make([]*solve.Solver, n)
	for i, ts := range servers {
		tier, err := solve.NewPeerTier(hosts, 0)
		if err != nil {
			t.Fatal(err)
		}
		tiers[i] = tier
		solvers[i] = solve.NewSolver(cawosched.SmallCluster(7), solve.WithCacheTier(tier))
		ts.Config.Handler = New(solvers[i], Config{})
		ts.Start()
		t.Cleanup(ts.Close)
	}
	landed := func() (total int) {
		for _, tier := range tiers {
			total += tier.Local().Len()
		}
		return total
	}
	solve := func(ts *httptest.Server, seed uint64) wire.SolveResponse {
		t.Helper()
		req := pinnedWireRequest(t)
		req.Seed = seed
		resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/solve", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve seed %d on %s: %d: %s", seed, ts.Listener.Addr(), resp.StatusCode, raw)
		}
		var got wire.SolveResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		return got
	}

	// Solve distinct requests on A; each record ships asynchronously to
	// its ring owner.
	var seeds uint64
	for seeds < 4 || tiers[1].Local().Len() == 0 || tiers[2].Local().Len() == 0 {
		if seeds == 64 {
			t.Fatalf("after %d requests B owns %d and C %d records", seeds, tiers[1].Local().Len(), tiers[2].Local().Len())
		}
		seeds++
		if got := solve(servers[0], seeds); got.CacheHit {
			t.Fatalf("cold solve of seed %d on A reported a hit", seeds)
		}
		deadline := time.Now().Add(5 * time.Second)
		for landed() < int(seeds) {
			if time.Now().After(deadline) {
				t.Fatalf("record of seed %d never landed on a ring owner", seeds)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Every first sight on B and on C is served from the ring, not
	// re-solved.
	for i := 1; i < n; i++ {
		for seed := uint64(1); seed <= seeds; seed++ {
			if got := solve(servers[i], seed); !got.CacheHit {
				t.Errorf("instance %d: first solve of seed %d was not a tier hit", i, seed)
			}
		}
		if st := solvers[i].Stats(); st.TierHits != int64(seeds) {
			t.Errorf("instance %d solver stats = %+v, want %d tier hits", i, st, seeds)
		}
		var hits int64
		for _, ps := range tiers[i].Stats() {
			hits += ps.Hits
			if ps.Errors != 0 || ps.Timeouts != 0 {
				t.Errorf("instance %d, peer %s: %+v, want zero errors/timeouts", i, ps.Peer, ps)
			}
			if ps.BreakerOpen {
				t.Errorf("instance %d, peer %s breaker open on a healthy fleet", i, ps.Peer)
			}
		}
		if hits != int64(seeds) {
			t.Errorf("instance %d tier recorded %d hits, want %d", i, hits, seeds)
		}
	}

	// B's /metrics expose the per-peer families and the breaker gauge.
	mresp, mbody := getBody(t, servers[1].Client(), servers[1].URL+"/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", mresp.StatusCode)
	}
	text := string(mbody)
	for _, want := range []string{
		"schedd_cache_tier_gets_total{peer=",
		"schedd_cache_tier_hits_total{peer=",
		"schedd_cache_tier_errors_total{peer=",
		"schedd_cache_tier_timeouts_total{peer=",
		"schedd_cache_tier_breaker_open{peer=",
		"schedd_solver_tier_hits_total " + strconv.FormatUint(seeds, 10),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
