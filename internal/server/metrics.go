package server

import (
	"runtime/debug"
	"time"

	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/solve"
	"repro/internal/tenancy"
)

// metrics owns the server's obs.Registry and the handles of every
// request-path metric. The registry is per-server (not a process global):
// tests run many servers in one process, and every instrumented layer
// below the handlers reaches the same registry through the request
// context (obs.WithMeter), so solver, core, greenheft, and tenancy
// metrics all land here without package-level coordination.
//
// Slow-moving counters that mirror snapshot sources — the solver's
// lifetime cache statistics, the tenancy manager's gauges — are refreshed
// by scrape hooks right before each exposition rather than on every
// request.
type metrics struct {
	reg *obs.Registry

	requests obs.CounterVec   // schedd_requests_total{handler}
	errors   obs.CounterVec   // schedd_request_errors_total{handler}
	inFlight obs.Gauge        // schedd_in_flight_requests
	latency  obs.HistogramVec // schedd_solve_latency_seconds{outcome}
	green    obs.CounterVec   // schedd_carbon_green_units_total{zone}
	brown    obs.CounterVec   // schedd_carbon_brown_units_total{zone}
}

func newMetrics(solver *solve.Solver, mgr *tenancy.Manager) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg: reg,
		requests: reg.Counter("schedd_requests_total",
			"finished HTTP requests by handler", "handler"),
		errors: reg.Counter("schedd_request_errors_total",
			"HTTP responses with status >= 400 by handler", "handler"),
		inFlight: reg.Gauge("schedd_in_flight_requests",
			"requests currently being served").With(),
		latency: reg.Histogram("schedd_solve_latency_seconds",
			"solve wall-clock latency (per item for batches) by outcome", nil, "outcome"),
		green: reg.Counter("schedd_carbon_green_units_total",
			"green energy units consumed by returned schedules, by zone", "zone"),
		brown: reg.Counter("schedd_carbon_brown_units_total",
			"brown (carbon) energy units consumed by returned schedules, by zone", "zone"),
	}

	goVersion, revision := buildIdentity()
	reg.Gauge("schedd_build_info",
		"build metadata; the value is always 1", "go_version", "revision").
		With(goVersion, revision).Set(1)

	// Solver lifetime counters, mirrored from its Stats snapshot at scrape
	// time (Store, not Add: the snapshot is already cumulative).
	solves := reg.Counter("schedd_solver_solves_total", "completed Solve calls").With()
	planHits := reg.Counter("schedd_plan_cache_hits_total", "plans served from the fingerprint memo").With()
	planMisses := reg.Counter("schedd_plan_cache_misses_total", "plans built by HEFT + instance construction").With()
	solveHits := reg.Counter("schedd_solve_cache_hits_total", "solves served from the response cache").With()
	solveMisses := reg.Counter("schedd_solve_cache_misses_total", "cacheable solves that ran the scheduler").With()
	solveCoalesced := reg.Counter("schedd_solve_coalesced_total",
		"solves served by joining a concurrent identical in-flight solve").With()
	tierHits := reg.Counter("schedd_solver_tier_hits_total", "solves served from the external cache tier").With()
	solveRepeats := reg.Counter("schedd_solve_repeats_total",
		"response-cache hits answered from the raw request bytes, without decoding them").With()
	repeatBytes := reg.Gauge("schedd_repeat_index_bytes",
		"request and answer bytes held for byte-identical repeats (bounded by the solve cache's entry bound)").With()
	solveEntries := reg.Gauge("schedd_solve_cache_entries", "responses currently cached").With()
	solveCapacity := reg.Gauge("schedd_solve_cache_capacity",
		"solve-response cache entry bound (0 = caching disabled)").With()
	planEntries := reg.Gauge("schedd_plan_cache_entries", "plans currently memoized").With()
	planCapacity := reg.Gauge("schedd_plan_cache_capacity",
		"plan memo entry bound (0 = memoization disabled)").With()
	contention := reg.Counter("schedd_cache_lock_contention_total",
		"cache-lock acquisitions that found the lock already held, by cache", "cache")
	planContention, solveContention := contention.With("plan"), contention.With("solve")
	reg.OnScrape(func() {
		st := solver.Stats()
		solves.Store(st.Solves)
		planHits.Store(st.PlanHits)
		planMisses.Store(st.PlanMisses)
		solveHits.Store(st.SolveHits)
		solveMisses.Store(st.SolveMisses)
		solveCoalesced.Store(st.SolveCoalesced)
		tierHits.Store(st.TierHits)
		solveRepeats.Store(st.SolveRepeats)
		repeatBytes.Set(st.RepeatIndexBytes)
		solveEntries.Set(int64(st.SolveEntries))
		solveCapacity.Set(int64(st.SolveCapacity))
		planEntries.Set(int64(st.PlanEntries))
		planCapacity.Set(int64(st.PlanCapacity))
		planContention.Store(st.PlanContention)
		solveContention.Store(st.SolveContention)
	})

	if tier := solver.PeerTier(); tier != nil {
		// Per-peer tier counters, mirrored from the tier's Stats snapshot
		// at scrape time. The label is the peer host exactly as spelled in
		// the -cache-tier spec, so dashboards join across the fleet.
		tierGets := reg.Counter("schedd_cache_tier_gets_total",
			"lookup requests sent to each cache-tier peer", "peer")
		tierPeerHits := reg.Counter("schedd_cache_tier_hits_total",
			"cache-tier peer lookups answered with a record", "peer")
		tierErrors := reg.Counter("schedd_cache_tier_errors_total",
			"cache-tier peer requests failed by transport error or bad status", "peer")
		tierTimeouts := reg.Counter("schedd_cache_tier_timeouts_total",
			"cache-tier peer requests abandoned at the per-peer timeout", "peer")
		tierPuts := reg.Counter("schedd_cache_tier_puts_total",
			"records shipped to each cache-tier peer", "peer")
		tierDrops := reg.Counter("schedd_cache_tier_put_drops_total",
			"record shipments dropped (breaker open or async slots busy), by peer", "peer")
		tierBreaker := reg.Gauge("schedd_cache_tier_breaker_open",
			"1 while the peer's circuit breaker is open (lookups short-circuit to misses)", "peer")
		reg.OnScrape(func() {
			for _, ps := range tier.Stats() {
				tierGets.With(ps.Peer).Store(ps.Gets)
				tierPeerHits.With(ps.Peer).Store(ps.Hits)
				tierErrors.With(ps.Peer).Store(ps.Errors)
				tierTimeouts.With(ps.Peer).Store(ps.Timeouts)
				tierPuts.With(ps.Peer).Store(ps.Puts)
				tierDrops.With(ps.Peer).Store(ps.Drops)
				open := int64(0)
				if ps.BreakerOpen {
					open = 1
				}
				tierBreaker.With(ps.Peer).Set(open)
			}
		})
	}

	if mgr != nil {
		workflows := reg.Gauge("schedd_workflows", "workflows by lifecycle state", "state")
		submitted := reg.Counter("schedd_workflows_submitted_total", "accepted submissions").With()
		rejected := reg.Counter("schedd_workflows_rejected_total", "admission rejections").With()
		canceled := reg.Counter("schedd_workflows_canceled_total", "client cancellations").With()
		rebalPasses := reg.Counter("schedd_rebalance_passes_total", "completed rolling-horizon passes").With()
		rebalMoves := reg.Counter("schedd_rebalance_moves_total", "placements improved and re-committed").With()
		saved := reg.Counter("schedd_rebalance_saved_units_total",
			"carbon units saved by adopted rebalance moves").With()
		claims := reg.Gauge("schedd_ledger_claims", "live reservations (ending after the compaction horizon)").With()
		reserved := reg.Gauge("schedd_ledger_reserved_units", "total proc-time units committed").With()
		// The regret view: admitted vs current placement cost over the
		// non-canceled fleet. current − admitted ≤ 0; its magnitude is the
		// carbon recovered by the rolling horizon since admission.
		tenantCost := reg.Gauge("schedd_tenant_cost_units",
			"summed placement cost of non-canceled workflows, by view", "view")
		reg.OnScrape(func() {
			g := mgr.Gauges()
			workflows.With("admitted").Set(g.Admitted)
			workflows.With("running").Set(g.Running)
			workflows.With("completed").Set(g.Completed)
			workflows.With("canceled").Set(g.Canceled)
			submitted.Store(g.SubmittedTotal)
			rejected.Store(g.RejectedTotal)
			canceled.Store(g.CanceledTotal)
			rebalPasses.Store(g.RebalancePasses)
			rebalMoves.Store(g.RebalanceMoves)
			saved.Store(g.SavedUnits)
			claims.Set(g.LedgerClaims)
			reserved.Set(g.LedgerReservedUnits)
			tenantCost.With("admitted").Set(g.AdmittedCostUnits)
			tenantCost.With("current").Set(g.PlacementCostUnits)
		})
	}
	return m
}

// buildIdentity extracts the Go toolchain version and VCS revision for
// schedd_build_info from the binary's embedded build information.
func buildIdentity() (goVersion, revision string) {
	goVersion, revision = "unknown", "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	if bi.GoVersion != "" {
		goVersion = bi.GoVersion
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && s.Value != "" {
			revision = s.Value
		}
	}
	return
}

// observeRequest records one finished request of the named handler.
func (m *metrics) observeRequest(handler string, status int) {
	m.requests.With(handler).Inc()
	if status >= 400 {
		m.errors.With(handler).Inc()
	}
}

// observeLatency records one solve (or batch item) duration under its
// outcome: "ok", "error", or "cache_hit".
func (m *metrics) observeLatency(outcome string, d time.Duration) {
	m.latency.With(outcome).Observe(d.Seconds())
}

// observeCarbon folds one response's per-zone carbon breakdown into the
// cumulative green/brown ledger.
func (m *metrics) observeCarbon(zones []schedule.ZoneCost) {
	for _, z := range zones {
		green, brown := zoneEnergy(z)
		m.addCarbon(z.Zone, green, brown)
	}
}

// zoneEnergy sums one zone's breakdown over its intervals.
func zoneEnergy(z schedule.ZoneCost) (green, brown int64) {
	for _, iv := range z.Intervals {
		green += iv.Green
		brown += iv.Brown
	}
	return green, brown
}

func (m *metrics) addCarbon(zone string, green, brown int64) {
	m.green.With(zone).Add(green)
	m.brown.With(zone).Add(brown)
}
