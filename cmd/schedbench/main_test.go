package main

import (
	"encoding/json"
	"path/filepath"
	"testing"
	"time"
)

// baseOptions mirrors the flag defaults small enough for a test run.
func baseOptions() options {
	return options{
		scenario:    "herd",
		concurrency: 8,
		waves:       3,
		requests:    48,
		hotRatio:    0.75,
		hotKeys:     2,
		variant:     "pressWR-LS",
		tasks:       40,
		cluster:     "small",
		zones:       1,
		seed:        7,
		timeout:     60 * time.Second,
	}
}

// TestHerdScenario is the harness's own acceptance smoke: a thundering
// herd against an in-process schedd must coalesce the overwhelming
// majority of requests — at most one computed solve per wave, everything
// else coalesced or cache-served, and zero errors.
func TestHerdScenario(t *testing.T) {
	opt := baseOptions()
	// Followers can only join a solve that is still running when they
	// arrive: the herd needs a leader that takes milliseconds, not the
	// ~100 µs of a 40-task fixed-mapping solve.
	opt.tasks, opt.mapSearch = 400, true
	rep, err := run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != opt.concurrency*opt.waves {
		t.Fatalf("requests = %d, want %d", rep.Requests, opt.concurrency*opt.waves)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d, want 0", rep.Errors)
	}
	// Per wave: 1 leader computes, the rest coalesce or (if they arrive
	// after the leader finished) hit the cache.
	if got, want := rep.Coalesced+rep.CacheHits, (opt.concurrency-1)*opt.waves; got != want {
		t.Fatalf("coalesced(%d) + cache hits(%d) = %d, want %d", rep.Coalesced, rep.CacheHits, got, want)
	}
	if rep.Coalesced == 0 {
		t.Fatal("herd produced zero coalesced requests")
	}
	if rep.CoalesceRate <= 0 || rep.CoalesceRate > 1 {
		t.Fatalf("coalesce rate = %v, want in (0,1]", rep.CoalesceRate)
	}
	if rep.ThroughputRPS <= 0 || rep.LatencyMsP50 <= 0 || rep.LatencyMsP99 < rep.LatencyMsP50 {
		t.Fatalf("implausible measurements: %+v", rep)
	}
}

// TestMixedScenario covers the hot/cold generator, the batch path, and
// the JSON artifact round trip.
func TestMixedScenario(t *testing.T) {
	opt := baseOptions()
	opt.scenario = "mixed"
	opt.concurrency = 4
	opt.batch = 4
	rep, err := run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != opt.requests {
		t.Fatalf("requests = %d, want %d", rep.Requests, opt.requests)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d, want 0", rep.Errors)
	}
	// Hot keys are pre-warmed, so at 75% hot ratio a solid majority of
	// requests must be served from cache (coalescing may convert some).
	if rep.CacheHits+rep.Coalesced < opt.requests/2 {
		t.Fatalf("cache hits(%d) + coalesced(%d) below half of %d requests", rep.CacheHits, rep.Coalesced, opt.requests)
	}

	// The artifact is valid JSON that round-trips the headline numbers.
	out := filepath.Join(t.TempDir(), "rep.json")
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ThroughputRPS != rep.ThroughputRPS || back.CoalesceRate != rep.CoalesceRate {
		t.Fatalf("artifact round trip changed numbers: %+v vs %+v", back, rep)
	}
	_ = out
}

// TestMixedMapSearch exercises the map-search request shape end to end.
func TestMixedMapSearch(t *testing.T) {
	opt := baseOptions()
	opt.scenario = "mixed"
	opt.requests = 12
	opt.concurrency = 3
	opt.hotKeys = 1
	opt.mapSearch = true
	rep, err := run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d, want 0", rep.Errors)
	}
	if !rep.MapSearch {
		t.Fatal("report does not record map_search")
	}
}

// TestFleetScenario is the peer-ring acceptance smoke: hot keys warmed
// on peer 0 only must reach the other peers through the tier — at least
// one cross-process tier hit per non-warming peer — with zero request
// errors and zero tier errors or timeouts.
func TestFleetScenario(t *testing.T) {
	opt := baseOptions()
	opt.scenario = "fleet"
	opt.peers = 3
	opt.concurrency = 4
	opt.requests = 60
	rep, err := run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Peers != 3 || rep.Requests != opt.requests {
		t.Fatalf("report = %+v, want 3 peers, %d requests", rep, opt.requests)
	}
	if rep.Errors != 0 {
		t.Fatalf("request errors = %d, want 0", rep.Errors)
	}
	if rep.TierErrors != 0 || rep.TierTimeouts != 0 {
		t.Fatalf("tier errors = %d, timeouts = %d, want 0/0", rep.TierErrors, rep.TierTimeouts)
	}
	// Each of the two non-warming peers sees each hot key cold exactly
	// once and must fetch it over the ring.
	if want := int64(opt.hotKeys * (opt.peers - 1)); rep.TierHits < want {
		t.Errorf("tier hits = %d, want >= %d (each non-warming peer's first sight of each hot key)", rep.TierHits, want)
	}
	if rep.TierGets < rep.TierHits {
		t.Errorf("tier gets %d < hits %d", rep.TierGets, rep.TierHits)
	}
	if rep.TierHitRate <= 0 || rep.TierHitRate > 1 {
		t.Errorf("tier hit rate = %v, want in (0,1]", rep.TierHitRate)
	}
}

// TestRunRejectsBadConfig pins the error paths.
func TestRunRejectsBadConfig(t *testing.T) {
	for _, mod := range []func(*options){
		func(o *options) { o.scenario = "storm" },
		func(o *options) { o.cluster = "galactic" },
		func(o *options) { o.concurrency = 1 },
		func(o *options) { o.scenario = "mixed"; o.hotRatio = 1.5 },
		func(o *options) { o.scenario = "mixed"; o.hotKeys = 0 },
		func(o *options) { o.scenario = "fleet"; o.peers = 1 },
		func(o *options) { o.scenario = "fleet"; o.peers = 2; o.addr = "http://x" },
		func(o *options) { o.scenario = "fleet"; o.peers = 2; o.hotKeys = 0 },
	} {
		opt := baseOptions()
		mod(&opt)
		if _, err := run(opt); err == nil {
			t.Errorf("config %+v unexpectedly accepted", opt)
		}
	}
}
