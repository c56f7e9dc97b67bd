// Command schedbench is the load harness of the serving path: it drives
// mixed or thundering-herd traffic against a schedd — an in-process one it
// spins up itself (default), or a remote one via -addr — and reports
// latency percentiles, throughput, coalesce rate, and cache hit rate as a
// JSON artifact, so "serves N req/s" is a regression-tested number instead
// of a claim.
//
// Scenarios:
//
//	herd   -waves waves of -concurrency identical requests on a fresh
//	       solve key each wave, started together: the singleflight
//	       acceptance scenario. Ideal coalesce rate is (C-1)/C per wave.
//	mixed  -requests total requests over -concurrency workers; each picks
//	       one of -hot-keys pre-warmed hot keys with probability
//	       -hot-ratio, else a cold key of its own. -batch groups requests
//	       into /v1/solve/batch bodies; -map-search turns every request
//	       into the two-pass mapping search.
//	fleet  -peers in-process schedd instances sharing one consistent-hash
//	       peer ring (the `-cache-tier peers:` deployment in miniature).
//	       Hot keys are warmed on peer 0 only, then the mixed stream is
//	       routed round-robin across all peers: every other peer's first
//	       sight of a hot key must be a cross-process tier hit. The
//	       report adds the fleet's per-peer-summed tier counters and the
//	       tier hit rate (tier hits / tier lookups).
//
// Rates are computed from the response bodies themselves (cache_hit and
// coalesced flags), so in-process and remote targets are measured
// identically. A positive -min-coalesce-rate makes the run fail when the
// measured coalesce rate falls below it (the CI smoke gate);
// -min-tier-hit-rate is the same gate for the fleet scenario's tier hit
// rate, which also fails the run on any tier error or timeout.
//
// Usage:
//
//	schedbench -scenario herd -concurrency 16 -waves 8 -out bench.json
//	schedbench -scenario mixed -requests 400 -hot-ratio 0.8 -addr http://host:8080
//	schedbench -scenario fleet -peers 3 -requests 300 -min-tier-hit-rate 0.05
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	cawosched "repro"
	"repro/internal/server"
	"repro/internal/wire"
)

// options collects every flag-settable knob of the harness.
type options struct {
	addr        string
	scenario    string
	concurrency int
	waves       int
	requests    int
	hotRatio    float64
	hotKeys     int
	batch       int
	mapSearch   bool
	variant     string
	tasks       int
	cluster     string
	zones       int
	seed        uint64
	timeout     time.Duration
	out         string
	minCoalesce float64
	peers       int
	minTierHit  float64
}

func main() {
	var opt options
	flag.StringVar(&opt.addr, "addr", "", "base URL of a running schedd (empty = spin up an in-process server)")
	flag.StringVar(&opt.scenario, "scenario", "herd", "traffic shape: herd | mixed | fleet")
	flag.IntVar(&opt.concurrency, "concurrency", 16, "concurrent clients (herd: requests per wave)")
	flag.IntVar(&opt.waves, "waves", 8, "herd: waves of identical requests, each on a fresh solve key")
	flag.IntVar(&opt.requests, "requests", 256, "mixed: total requests")
	flag.Float64Var(&opt.hotRatio, "hot-ratio", 0.8, "mixed: probability a request reuses a hot key")
	flag.IntVar(&opt.hotKeys, "hot-keys", 4, "mixed: number of distinct pre-warmed hot keys")
	flag.IntVar(&opt.batch, "batch", 0, "mixed: group requests into /v1/solve/batch bodies of this size (0 = single solves)")
	flag.BoolVar(&opt.mapSearch, "map-search", false, "request the two-pass mapping search")
	flag.StringVar(&opt.variant, "variant", "pressWR-LS", "scheduling variant for every request")
	flag.IntVar(&opt.tasks, "tasks", 60, "workflow size (tasks) of the generated DAG")
	flag.StringVar(&opt.cluster, "cluster", "small", "in-process target cluster: small | large")
	flag.IntVar(&opt.zones, "zones", 1, "in-process cluster grid zones")
	flag.Uint64Var(&opt.seed, "seed", 7, "workflow/cluster generation seed")
	flag.DurationVar(&opt.timeout, "timeout", 60*time.Second, "per-request client timeout")
	flag.StringVar(&opt.out, "out", "", "write the JSON report here (empty = stdout)")
	flag.Float64Var(&opt.minCoalesce, "min-coalesce-rate", 0, "fail when the measured coalesce rate is below this (0 = no gate)")
	flag.IntVar(&opt.peers, "peers", 3, "fleet: in-process schedd instances sharing the peer ring")
	flag.Float64Var(&opt.minTierHit, "min-tier-hit-rate", 0, "fleet: fail when the tier hit rate is below this or any tier error/timeout occurred (0 = no gate)")
	flag.Parse()

	rep, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedbench:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedbench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if opt.out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(opt.out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "schedbench:", err)
		os.Exit(1)
	}
	if opt.minCoalesce > 0 && rep.CoalesceRate < opt.minCoalesce {
		fmt.Fprintf(os.Stderr, "schedbench: coalesce rate %.3f below the -min-coalesce-rate gate %.3f\n",
			rep.CoalesceRate, opt.minCoalesce)
		os.Exit(1)
	}
	if opt.minTierHit > 0 {
		if rep.TierHitRate < opt.minTierHit {
			fmt.Fprintf(os.Stderr, "schedbench: tier hit rate %.3f below the -min-tier-hit-rate gate %.3f\n",
				rep.TierHitRate, opt.minTierHit)
			os.Exit(1)
		}
		if rep.TierErrors+rep.TierTimeouts > 0 {
			fmt.Fprintf(os.Stderr, "schedbench: fleet recorded %d tier errors and %d timeouts, want none\n",
				rep.TierErrors, rep.TierTimeouts)
			os.Exit(1)
		}
	}
}

// report is the committed JSON artifact: one run's configuration and
// measurements.
type report struct {
	Scenario    string  `json:"scenario"`
	Target      string  `json:"target"` // "in-process" or the remote base URL
	Concurrency int     `json:"concurrency"`
	Waves       int     `json:"waves,omitempty"`
	HotRatio    float64 `json:"hot_ratio,omitempty"`
	HotKeys     int     `json:"hot_keys,omitempty"`
	Batch       int     `json:"batch,omitempty"`
	MapSearch   bool    `json:"map_search,omitempty"`
	Variant     string  `json:"variant"`
	Tasks       int     `json:"tasks"`
	Peers       int     `json:"peers,omitempty"`

	Requests    int     `json:"requests"`
	Errors      int     `json:"errors"`
	Coalesced   int     `json:"coalesced"`
	CacheHits   int     `json:"cache_hits"`
	WallSeconds float64 `json:"wall_seconds"`

	// Fleet-scenario tier counters, summed over every peer's PeerTier
	// (lookups actually sent to ring owners and their outcomes).
	TierGets     int64 `json:"tier_gets,omitempty"`
	TierHits     int64 `json:"tier_hits,omitempty"`
	TierErrors   int64 `json:"tier_errors,omitempty"`
	TierTimeouts int64 `json:"tier_timeouts,omitempty"`

	ThroughputRPS float64 `json:"throughput_rps"`
	CoalesceRate  float64 `json:"coalesce_rate"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	TierHitRate   float64 `json:"tier_hit_rate,omitempty"`
	LatencyMsP50  float64 `json:"latency_ms_p50"`
	LatencyMsP95  float64 `json:"latency_ms_p95"`
	LatencyMsP99  float64 `json:"latency_ms_p99"`
}

// sample is one finished request.
type sample struct {
	latency   time.Duration
	coalesced bool
	cacheHit  bool
	err       error
}

// run executes one scenario and aggregates the report. Split from main so
// the harness is testable in-process.
func run(opt options) (*report, error) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Methylseq, opt.tasks, opt.seed)
	if err != nil {
		return nil, err
	}
	wwf := wire.FromDAG(wf)
	reqFor := func(seed uint64) *wire.SolveRequest {
		r := &wire.SolveRequest{Workflow: wwf, Variant: opt.variant, Scenario: "S1", Seed: seed}
		if opt.mapSearch {
			r.Mapping = "map-search"
		}
		return r
	}
	if opt.scenario == "fleet" {
		return runFleet(opt, reqFor)
	}

	base, client, cleanup, err := target(opt)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	var samples []sample
	var wall time.Duration
	switch opt.scenario {
	case "herd":
		samples, wall, err = runHerd(opt, base, client, reqFor)
	case "mixed":
		samples, wall, err = runMixed(opt, base, client, reqFor)
	default:
		err = fmt.Errorf("unknown scenario %q (want herd, mixed, or fleet)", opt.scenario)
	}
	if err != nil {
		return nil, err
	}
	return summarize(opt, samples, wall), nil
}

// benchCluster resolves the in-process target cluster by name.
func benchCluster(opt options) (*cawosched.Cluster, error) {
	switch opt.cluster {
	case "small":
		return cawosched.SmallZonedCluster(opt.seed, opt.zones), nil
	case "large":
		return cawosched.LargeZonedCluster(opt.seed, opt.zones), nil
	default:
		return nil, fmt.Errorf("unknown cluster %q (want small or large)", opt.cluster)
	}
}

// runFleet boots -peers in-process schedd instances sharing one peer
// ring, warms the hot keys on peer 0 only, then drives the mixed request
// stream round-robin across all peers: every other peer's first sight of
// a hot key is served over the ring. It returns a finished report — the
// fleet's tier counters come from the tiers themselves, which the
// per-target summarize path has no access to.
func runFleet(opt options, reqFor func(uint64) *wire.SolveRequest) (*report, error) {
	if opt.addr != "" {
		return nil, fmt.Errorf("fleet is in-process only; -addr is not supported")
	}
	if opt.peers < 2 {
		return nil, fmt.Errorf("fleet needs -peers >= 2, got %d", opt.peers)
	}
	if opt.hotKeys < 1 || opt.hotRatio < 0 || opt.hotRatio > 1 {
		return nil, fmt.Errorf("want -hot-keys >= 1 and -hot-ratio in [0,1]")
	}
	cluster, err := benchCluster(opt)
	if err != nil {
		return nil, err
	}
	tiers := make([]*cawosched.PeerTier, opt.peers)
	bases := make([]string, opt.peers)
	clients := make([]*http.Client, opt.peers)
	hosts := make([]string, opt.peers)
	for i := range tiers {
		tier, err := cawosched.NewPeerTier(nil, cawosched.PeerTierOptions{})
		if err != nil {
			return nil, err
		}
		solver := cawosched.NewSolver(cluster, cawosched.WithCacheTier(tier))
		ts := httptest.NewServer(server.New(solver, server.Config{
			SearchWorkers: 4,
			BatchWorkers:  opt.concurrency,
			PeerTier:      tier,
		}))
		defer ts.Close()
		client := ts.Client()
		client.Timeout = opt.timeout
		if tr, ok := client.Transport.(*http.Transport); ok {
			tr.MaxIdleConns = opt.concurrency + 2
			tr.MaxIdleConnsPerHost = opt.concurrency + 2
		}
		tiers[i], bases[i], clients[i] = tier, ts.URL, client
		hosts[i] = ts.Listener.Addr().String()
	}
	// Every instance ranks the same host list, so the ring agrees fleet-wide.
	for _, tier := range tiers {
		if err := tier.SetPeers(hosts); err != nil {
			return nil, err
		}
	}

	// Warm the hot keys on peer 0 only; their records ship asynchronously
	// to each key's ring owner, so wait for all of them to land before the
	// timed window opens.
	for k := 0; k < opt.hotKeys; k++ {
		if s := postSolve(clients[0], bases[0], reqFor(uint64(k+1))); s.err != nil {
			return nil, fmt.Errorf("warming hot key %d: %w", k, s.err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		total := 0
		for _, tier := range tiers {
			total += tier.Local().Len()
		}
		if total >= opt.hotKeys {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("only %d of %d warm records reached the ring", total, opt.hotKeys)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The mixed deterministic stream, routed round-robin across peers.
	reqs := make([]*wire.SolveRequest, opt.requests)
	lcg := opt.seed*6364136223846793005 + 1442695040888963407
	cold := uint64(3_000_000_019)
	for i := range reqs {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		if float64(lcg>>11)/float64(1<<53) < opt.hotRatio {
			reqs[i] = reqFor(uint64(int(lcg>>54)%opt.hotKeys) + 1)
		} else {
			cold++
			reqs[i] = reqFor(cold)
		}
	}
	samples := make([]sample, len(reqs))
	var wg sync.WaitGroup
	work := make(chan int)
	for c := 0; c < opt.concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				p := i % opt.peers
				samples[i] = postSolve(clients[p], bases[p], reqs[i])
			}
		}()
	}
	start := time.Now()
	for i := range reqs {
		work <- i
	}
	close(work)
	wg.Wait()
	wall := time.Since(start)

	rep := summarize(opt, samples, wall)
	rep.Peers = opt.peers
	for _, tier := range tiers {
		for _, ps := range tier.Stats() {
			rep.TierGets += ps.Gets
			rep.TierHits += ps.Hits
			rep.TierErrors += ps.Errors
			rep.TierTimeouts += ps.Timeouts
		}
	}
	if rep.TierGets > 0 {
		rep.TierHitRate = float64(rep.TierHits) / float64(rep.TierGets)
	}
	return rep, nil
}

// target resolves the base URL and client: the remote -addr, or a fresh
// in-process schedd over a loopback listener (so both paths measure the
// full HTTP serving stack).
func target(opt options) (base string, client *http.Client, cleanup func(), err error) {
	if opt.addr != "" {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = opt.concurrency + 2
		tr.MaxIdleConnsPerHost = opt.concurrency + 2
		return strings.TrimRight(opt.addr, "/"), &http.Client{Timeout: opt.timeout, Transport: tr}, func() {}, nil
	}
	cluster, err := benchCluster(opt)
	if err != nil {
		return "", nil, nil, err
	}
	solver := cawosched.NewSolver(cluster)
	ts := httptest.NewServer(server.New(solver, server.Config{
		SearchWorkers: 4,
		BatchWorkers:  opt.concurrency,
	}))
	client = ts.Client()
	client.Timeout = opt.timeout
	if tr, ok := client.Transport.(*http.Transport); ok {
		tr.MaxIdleConns = opt.concurrency + 2
		tr.MaxIdleConnsPerHost = opt.concurrency + 2
	}
	return ts.URL, client, ts.Close, nil
}

// preconnect fills the client's connection pool with opt.concurrency warm
// connections (concurrent health checks), so a herd wave's requests pay no
// dial latency and arrive at the server as close together as the client
// host allows.
func preconnect(opt options, base string, client *http.Client) {
	var wg sync.WaitGroup
	release := make(chan struct{})
	for c := 0; c < opt.concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			resp, err := client.Get(base + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	close(release)
	wg.Wait()
}

// runHerd fires -waves waves of -concurrency identical requests, each wave
// on a fresh solve key (a fresh profile seed), all starters released
// together.
func runHerd(opt options, base string, client *http.Client, reqFor func(uint64) *wire.SolveRequest) ([]sample, time.Duration, error) {
	if opt.concurrency < 2 {
		return nil, 0, fmt.Errorf("herd needs -concurrency >= 2, got %d", opt.concurrency)
	}
	preconnect(opt, base, client)
	var samples []sample
	start := time.Now()
	for w := 0; w < opt.waves; w++ {
		req := reqFor(1_000_000_007 + uint64(w)) // fresh key per wave
		wave := make([]sample, opt.concurrency)
		release := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < opt.concurrency; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-release
				wave[c] = postSolve(client, base, req)
			}(c)
		}
		close(release)
		wg.Wait()
		samples = append(samples, wave...)
	}
	return samples, time.Since(start), nil
}

// runMixed fires -requests requests over -concurrency workers: hot keys
// (pre-warmed, zipf-less uniform choice among -hot-keys) with probability
// -hot-ratio, unique cold keys otherwise. With -batch > 0 requests are
// grouped into batch bodies.
func runMixed(opt options, base string, client *http.Client, reqFor func(uint64) *wire.SolveRequest) ([]sample, time.Duration, error) {
	if opt.hotKeys < 1 || opt.hotRatio < 0 || opt.hotRatio > 1 {
		return nil, 0, fmt.Errorf("want -hot-keys >= 1 and -hot-ratio in [0,1]")
	}
	// Warm the hot keys outside the timed window.
	for k := 0; k < opt.hotKeys; k++ {
		if s := postSolve(client, base, reqFor(uint64(k+1))); s.err != nil {
			return nil, 0, fmt.Errorf("warming hot key %d: %w", k, s.err)
		}
	}
	// Pre-plan the request stream deterministically: a tiny LCG decides
	// hot vs cold, so runs are reproducible without consulting math/rand.
	reqs := make([]*wire.SolveRequest, opt.requests)
	lcg := opt.seed*6364136223846793005 + 1442695040888963407
	cold := uint64(2_000_000_011)
	for i := range reqs {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		if float64(lcg>>11)/float64(1<<53) < opt.hotRatio {
			reqs[i] = reqFor(uint64(int(lcg>>54)%opt.hotKeys) + 1)
		} else {
			cold++
			reqs[i] = reqFor(cold)
		}
	}

	samples := make([]sample, 0, opt.requests)
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan []*wire.SolveRequest)
	for c := 0; c < opt.concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for group := range work {
				var got []sample
				if len(group) == 1 && opt.batch == 0 {
					got = []sample{postSolve(client, base, group[0])}
				} else {
					got = postBatch(client, base, group)
				}
				mu.Lock()
				samples = append(samples, got...)
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	group := 1
	if opt.batch > 0 {
		group = opt.batch
	}
	for i := 0; i < len(reqs); i += group {
		end := i + group
		if end > len(reqs) {
			end = len(reqs)
		}
		work <- reqs[i:end]
	}
	close(work)
	wg.Wait()
	return samples, time.Since(start), nil
}

// postSolve measures one POST /v1/solve.
func postSolve(client *http.Client, base string, req *wire.SolveRequest) sample {
	body, err := json.Marshal(req)
	if err != nil {
		return sample{err: err}
	}
	start := time.Now()
	resp, err := client.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return sample{latency: time.Since(start), err: err}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return sample{latency: lat, err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return sample{latency: lat, err: fmt.Errorf("status %d: %s", resp.StatusCode, truncate(raw))}
	}
	var sr wire.SolveResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		return sample{latency: lat, err: err}
	}
	return sample{latency: lat, coalesced: sr.Coalesced, cacheHit: sr.CacheHit}
}

// postBatch measures one POST /v1/solve/batch; the batch's wall time is
// attributed to each item (that is the latency its submitter saw).
func postBatch(client *http.Client, base string, reqs []*wire.SolveRequest) []sample {
	items := make([]wire.SolveRequest, len(reqs))
	for i, r := range reqs {
		items[i] = *r
	}
	body, err := json.Marshal(&wire.BatchRequest{Requests: items})
	if err != nil {
		return errSamples(len(reqs), 0, err)
	}
	start := time.Now()
	resp, err := client.Post(base+"/v1/solve/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return errSamples(len(reqs), time.Since(start), err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return errSamples(len(reqs), lat, err)
	}
	if resp.StatusCode != http.StatusOK {
		return errSamples(len(reqs), lat, fmt.Errorf("status %d: %s", resp.StatusCode, truncate(raw)))
	}
	var br wire.BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		return errSamples(len(reqs), lat, err)
	}
	out := make([]sample, 0, len(br.Results))
	for _, item := range br.Results {
		s := sample{latency: lat}
		switch {
		case item.Error != nil:
			s.err = fmt.Errorf("%s: %s", item.Error.Code, item.Error.Message)
		case item.Response != nil:
			s.coalesced, s.cacheHit = item.Response.Coalesced, item.Response.CacheHit
		default:
			s.err = fmt.Errorf("batch item %d carries neither response nor error", item.Index)
		}
		out = append(out, s)
	}
	return out
}

func errSamples(n int, lat time.Duration, err error) []sample {
	out := make([]sample, n)
	for i := range out {
		out[i] = sample{latency: lat, err: err}
	}
	return out
}

func truncate(raw []byte) string {
	s := string(raw)
	if len(s) > 200 {
		s = s[:200] + "…"
	}
	return s
}

// summarize folds the samples into the report.
func summarize(opt options, samples []sample, wall time.Duration) *report {
	rep := &report{
		Scenario:    opt.scenario,
		Target:      "in-process",
		Concurrency: opt.concurrency,
		Variant:     opt.variant,
		Tasks:       opt.tasks,
		Requests:    len(samples),
		WallSeconds: wall.Seconds(),
	}
	if opt.addr != "" {
		rep.Target = opt.addr
	}
	if opt.scenario == "herd" {
		rep.Waves = opt.waves
	} else {
		rep.HotRatio = opt.hotRatio
		rep.HotKeys = opt.hotKeys
		rep.Batch = opt.batch
	}
	rep.MapSearch = opt.mapSearch

	lats := make([]time.Duration, 0, len(samples))
	for _, s := range samples {
		if s.err != nil {
			rep.Errors++
			continue
		}
		lats = append(lats, s.latency)
		if s.coalesced {
			rep.Coalesced++
		}
		if s.cacheHit {
			rep.CacheHits++
		}
	}
	if n := len(lats); n > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		pct := func(p float64) float64 {
			idx := int(p*float64(n-1) + 0.5)
			return float64(lats[idx].Microseconds()) / 1000
		}
		rep.LatencyMsP50 = pct(0.50)
		rep.LatencyMsP95 = pct(0.95)
		rep.LatencyMsP99 = pct(0.99)
	}
	if ok := len(samples) - rep.Errors; ok > 0 {
		rep.CoalesceRate = float64(rep.Coalesced) / float64(ok)
		rep.CacheHitRate = float64(rep.CacheHits) / float64(ok)
	}
	if wall > 0 {
		rep.ThroughputRPS = float64(len(samples)) / wall.Seconds()
	}
	return rep
}
