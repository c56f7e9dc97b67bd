package cawosched

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/greenheft"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/scherr"
)

// Structured errors re-exported from the internal taxonomy. Every failure
// of the Solver (and of the context-aware free functions) can be
// classified with errors.Is against these sentinels and unpacked with
// errors.As into the detail types below.
var (
	// ErrInfeasibleDeadline: no schedule can meet the deadline.
	ErrInfeasibleDeadline = scherr.ErrInfeasibleDeadline
	// ErrBudgetExhausted: a bounded search ran out of budget; any result
	// returned alongside it is only an upper bound.
	ErrBudgetExhausted = scherr.ErrBudgetExhausted
	// ErrCanceled: the context was canceled or timed out mid-solve. The
	// error also satisfies errors.Is(err, ctx.Err()).
	ErrCanceled = scherr.ErrCanceled
	// ErrUnknownVariant: a variant name missing from the registry.
	ErrUnknownVariant = scherr.ErrUnknownVariant
	// ErrInvalidRequest: request inputs inconsistent with the target
	// platform (e.g. a per-zone supply or zone-scenario list whose zone
	// count does not match the cluster's).
	ErrInvalidRequest = scherr.ErrInvalidRequest
)

// Detail types carried by the sentinels above (use errors.As).
type (
	// InfeasibleDeadlineError pinpoints the node whose window is empty.
	InfeasibleDeadlineError = scherr.InfeasibleDeadlineError
	// BudgetError reports how many search nodes were expanded.
	BudgetError = scherr.BudgetError
	// CanceledError wraps the context error that stopped the solve.
	CanceledError = scherr.CanceledError
	// UnknownVariantError lists the canonical registry names.
	UnknownVariantError = scherr.UnknownVariantError
)

// ErrorCode classifies err into one of the stable machine-readable error
// codes of internal/scherr ("infeasible_deadline", "budget_exhausted",
// "canceled", "deadline_exceeded", "unknown_variant"), or "" when the
// error carries no scheduler classification. The same codes appear in the
// "code" field of every schedd HTTP error body and in CLI error output.
func ErrorCode(err error) string { return scherr.Code(err) }

// LookupVariant resolves a canonical variant name ("slack", "pressWR-LS",
// …) to its Options through the variant registry shared with the CLIs and
// the sweep records. Unknown names fail with ErrUnknownVariant.
func LookupVariant(name string) (Options, error) { return core.LookupVariant(name) }

// VariantNames returns the canonical names of the 16 registered variants
// in the paper's presentation order.
func VariantNames() []string { return core.VariantNames() }

// DefaultVariant is the variant a Request resolves to when it names none:
// pressWR-LS, the paper's most frequent winner.
const DefaultVariant = "pressWR-LS"

// Request describes one solve: which workflow (or prebuilt instance),
// which variant, and which power profile (explicit or generated from a
// scenario). The zero values of the tuning fields pick the paper's
// defaults, so the minimal request is {Workflow: wf}.
type Request struct {
	// Workflow is the DAG to plan (HEFT mapping + ordering, memoized per
	// workflow fingerprint). Ignored when Instance is set; one of the two
	// must be non-nil.
	Workflow *DAG
	// Instance, if non-nil, skips planning and schedules this prebuilt
	// instance directly (it must belong to the solver's cluster).
	Instance *Instance

	// Variant is a canonical registry name, e.g. "pressWR-LS"; empty means
	// DefaultVariant. Ignored when Options is set.
	Variant string
	// Options, if non-nil, selects the variant explicitly and overrides
	// Variant.
	Options *Options
	// Marginal switches the greedy phase to the exact-marginal-cost greedy
	// (core.GreedyMarginal) instead of the paper's budget-based one.
	Marginal bool

	// Zones, if non-nil, is the per-grid-zone green power supply; its
	// horizon is the deadline. A multi-zone set must carry exactly one
	// zone per cluster zone, index-matched (see NewZonedCluster). It
	// overrides Profile.
	Zones *ZoneSet
	// Profile, if non-nil (and Zones is nil), is used cluster-wide as-is;
	// its horizon is the deadline. Otherwise a profile is generated from
	// Scenario over the horizon DeadlineFactor·D with Intervals intervals
	// and Seed — one per cluster zone when the cluster is zoned.
	Profile *Profile
	// Scenario selects the generated profile's shape (default S1).
	Scenario Scenario
	// ZoneScenarios, if set, selects one generated shape per cluster zone
	// (length must equal the cluster's zone count); it overrides Scenario
	// and is ignored when Zones or Profile is set.
	ZoneScenarios []Scenario
	// MappingPolicy selects the first-pass mapping of the workflow: the
	// zero value (MapEFT) is the paper's carbon-blind HEFT mapping; the
	// other policies trade finish time against power draw or the zone
	// intensity forecast (see internal/greenheft). Requires a Workflow
	// request (prebuilt instances carry their mapping already).
	MappingPolicy MappingPolicy
	// MapSearch runs the two-pass mapping search instead: map under every
	// candidate policy, schedule each mapping, keep the lowest-carbon
	// feasible plan. It overrides MappingPolicy; the winning policy is
	// reported in Response.Mapping.
	MapSearch bool

	// SearchWorkers bounds the scheduler's worker pools: the local-search
	// move evaluation and, under MapSearch, the candidate-policy fan-out.
	// Values ≤ 1 run sequentially. The setting is pure mechanism — any
	// worker count produces the identical response — so it does not enter
	// the solve-cache key: a request solved with 4 workers is a cache hit
	// for the same request with 1.
	SearchWorkers int

	// DeadlineFactor sets the deadline T = factor·D where D is the ASAP
	// makespan; 0 means the paper's default tolerance of 2. Values below 1
	// are rejected (T < D is infeasible by construction).
	DeadlineFactor float64
	// Intervals is the generated profile's interval count (default 24).
	Intervals int
	// Seed drives profile generation (and nothing else).
	Seed uint64
}

// Response is the result of one solve.
type Response struct {
	Schedule *Schedule // the validated carbon-aware schedule
	Instance *Instance // the (possibly memoized) scheduling instance
	Zones    *ZoneSet  // the per-zone supply the schedule was optimized against
	Profile  *Profile  // Zones' only profile for single-zone solves; nil otherwise
	Stats    Stats     // scheduler instrumentation; Stats.Cost == Cost
	Variant  string    // canonical name of the variant that ran
	Mapping  string    // mapping policy of the plan ("heft" unless requested otherwise; the winner for map-search)
	D        int64     // ASAP makespan (tightest feasible deadline)
	Deadline int64     // deadline actually used (the profile horizon)
	Cost     int64     // carbon cost of Schedule
	ASAPCost int64     // carbon cost of the ASAP baseline under Profile
	PlanHit  bool      // true if the HEFT plan came from the memo cache
	CacheHit bool      // true if the whole response came from the solve cache (or the external tier)
	// Coalesced is true when this response was shared from a concurrent
	// identical request's in-flight solve (singleflight follower): the
	// schedule is identical to the leader's, but this request ran no
	// scheduler of its own.
	Coalesced bool
	// Timings are the wall-clock durations of the solve's top-level
	// stages (plan, supply, cache, map, schedule). Always measured (a
	// handful of time.Now calls per request); never cached — a cache hit
	// reports the hit's own timings, not the original solve's.
	Timings []obs.StageTiming
}

// SolverStats is a snapshot of a solver's lifetime counters.
type SolverStats struct {
	Solves      int64 // completed Solve calls (including failed ones)
	PlanHits    int64 // Plan requests served from the fingerprint cache
	PlanMisses  int64 // Plan requests that ran HEFT + instance construction
	SolveHits   int64 // Solve calls served from the solve-response cache
	SolveMisses int64 // cacheable Solve calls not served by the in-process response cache
	// SolveCoalesced counts requests served by joining a concurrent
	// identical in-flight solve: the follower side of the singleflight.
	// A coalesced request counts neither a hit nor a miss — the leader
	// already counted the one miss the herd cost.
	SolveCoalesced int64
	// TierHits counts solves served from the external cache tier (0
	// without a configured tier).
	TierHits     int64
	SolveEntries int // responses currently held by the solve cache
	// SolveCapacity is the solve cache's total entry bound (0 = disabled).
	SolveCapacity int
	PlanEntries   int // plans currently memoized
	PlanCapacity  int // plan memo's total entry bound (0 = disabled)
	CacheShards   int // power-of-two shard count of both caches
	// PlanContention / SolveContention count shard-lock acquisitions that
	// found the lock already held — the residual contention sharding did
	// not eliminate. Pure mechanism: workload-order dependent, never part
	// of any determinism contract.
	PlanContention  int64
	SolveContention int64
}

// Solver is the concurrency-safe request/response entry point: one solver
// per target cluster, shared by any number of goroutines. It memoizes
// HEFT plans per workflow fingerprint (planning is typically far more
// expensive than scheduling, and a service replans the same workflow under
// many profiles/variants), and threads the caller's context through every
// scheduling phase, so cancellation and deadlines are honored mid-run.
type Solver struct {
	cluster *Cluster

	// First cache level: memoized plans, sharded (see solvercache.go).
	// planEff is the effective shard count keys are routed over — at most
	// the entry limit, so no shard is left with zero capacity.
	planShards []planShard
	planCap    atomic.Int64 // total bound across shards
	planEff    atomic.Int64 // power-of-two count of shards receiving keys

	// Second cache level: whole solve responses, LRU-bounded per shard,
	// keyed by (workflow fingerprint, profile digest, deadline, normalized
	// options, greedy flavor). See solveCacheGet/solveCachePut.
	solveShards []solveShard
	solveCap    atomic.Int64 // total bound across shards
	solveEff    atomic.Int64 // power-of-two count of shards receiving keys

	// Singleflight: concurrent identical cacheable solves coalesce onto
	// one in-flight leader (see joinFlight). The table is tiny — one entry
	// per distinct key currently being solved — so one mutex suffices.
	coalesce bool
	fmu      sync.Mutex
	flights  map[solveKey]*flight

	// Optional external cache tier between the in-process response cache
	// and a full solve (see CacheTier).
	tier CacheTier

	solves          atomic.Int64
	planHits        atomic.Int64
	planMisses      atomic.Int64
	solveHits       atomic.Int64
	solveMisses     atomic.Int64
	solveCoalesced  atomic.Int64
	tierHits        atomic.Int64
	planContention  atomic.Int64
	solveContention atomic.Int64

	// testLeaderGate, when set (tests only), runs on the leader's
	// goroutine right after it wins the flight election and before it
	// consults the tier or solves — the hook the coalescing tests use to
	// hold a leader in flight while followers pile up.
	testLeaderGate func()
}

// maxPlans is the default plan-memo bound (total entries across shards).
const maxPlans = 4096

// defaultSolveCache bounds the solve-response cache (total LRU entries
// across shards).
const defaultSolveCache = 4096

// planKey identifies one memoized plan: which workflow, under which
// mapping policy, against which zone forecast (zone-aware policies map
// differently under different supplies; zone-blind policies — including
// the legacy HEFT mapping — key with a zero digest, so they share one
// plan across supplies exactly as before the mapping layer).
type planKey struct {
	fp     uint64
	policy greenheft.Policy
	zd     uint64
}

// planEntry is a once-built memoized plan; concurrent requests for the
// same key block on the first build instead of duplicating it. The source
// workflow (and, for zone-aware policies, the zone set) is retained to
// guard against digest collisions, and the ASAP schedule / makespan D —
// pure functions of the instance that every Solve needs — are computed
// once alongside it.
type planEntry struct {
	once   sync.Once
	wf     *DAG
	policy greenheft.Policy
	zones  *ZoneSet // nil for zone-blind policies
	inst   *Instance
	asap   *Schedule
	d      int64
	err    error
}

func (e *planEntry) build(cluster *Cluster) {
	e.once.Do(func() {
		if e.policy == greenheft.EFT {
			// Byte-for-byte the legacy path (greenheft's EFT is pinned
			// identical to heft, but PlanHEFT keeps this explicit).
			e.inst, e.err = PlanHEFT(e.wf, cluster)
		} else {
			e.inst, e.err = greenheft.MapInstance(e.wf, cluster, greenheft.Options{Policy: e.policy, Zones: e.zones})
		}
		if e.err == nil {
			e.asap = ASAP(e.inst)
			e.d = Makespan(e.inst, e.asap)
		}
	})
}

// NewSolver returns a solver bound to the given target cluster. Options
// tune the caching/concurrency layer (shard count, cache bounds,
// coalescing, external tier); the zero-option solver shards both caches
// by GOMAXPROCS and coalesces concurrent identical solves.
func NewSolver(cluster *Cluster, opts ...SolverOption) *Solver {
	cfg := solverConfig{
		shards:   defaultCacheShards(),
		solveCap: defaultSolveCache,
		planCap:  maxPlans,
		coalesce: true,
	}
	for _, o := range opts {
		o(&cfg)
	}
	s := &Solver{
		cluster:     cluster,
		planShards:  make([]planShard, cfg.shards),
		solveShards: make([]solveShard, cfg.shards),
		coalesce:    cfg.coalesce,
		flights:     make(map[solveKey]*flight),
		tier:        cfg.tier,
	}
	s.planCap.Store(int64(cfg.planCap))
	s.solveCap.Store(int64(cfg.solveCap))
	planEff := effectiveShards(cfg.shards, cfg.planCap)
	solveEff := effectiveShards(cfg.shards, cfg.solveCap)
	s.planEff.Store(int64(planEff))
	s.solveEff.Store(int64(solveEff))
	for i := range s.planShards {
		s.planShards[i].entries = make(map[planKey]*planEntry)
		if i < planEff {
			s.planShards[i].cap = shardShare(cfg.planCap, i, planEff)
		}
	}
	for i := range s.solveShards {
		s.solveShards[i].responses = make(map[solveKey]*solveEntry)
		s.solveShards[i].lru = list.New()
		if i < solveEff {
			s.solveShards[i].cap = shardShare(cfg.solveCap, i, solveEff)
		}
	}
	return s
}

// Cluster returns the target platform the solver plans against.
func (s *Solver) Cluster() *Cluster { return s.cluster }

// Stats returns a snapshot of the solver's counters. Entry counts sum the
// cache shards, so the accounting is identical at every shard count.
func (s *Solver) Stats() SolverStats {
	return SolverStats{
		Solves:          s.solves.Load(),
		PlanHits:        s.planHits.Load(),
		PlanMisses:      s.planMisses.Load(),
		SolveHits:       s.solveHits.Load(),
		SolveMisses:     s.solveMisses.Load(),
		SolveCoalesced:  s.solveCoalesced.Load(),
		TierHits:        s.tierHits.Load(),
		SolveEntries:    s.solveEntriesCount(),
		SolveCapacity:   int(s.solveCap.Load()),
		PlanEntries:     s.planEntries(),
		PlanCapacity:    int(s.planCap.Load()),
		CacheShards:     len(s.solveShards),
		PlanContention:  s.planContention.Load(),
		SolveContention: s.solveContention.Load(),
	}
}

// solveKey identifies one cacheable solve: which workflow, against which
// per-zone supply (the zone-set digest pins every zone's name and
// intervals and hence the horizon; a degenerate single-zone set digests
// exactly like its bare profile, so legacy keys are unchanged; the
// deadline is kept explicitly for clarity and as an extra collision bit),
// with which fully-normalized variant configuration.
type solveKey struct {
	fp        uint64           // workflow fingerprint
	digest    uint64           // power zone-set digest
	deadline  int64            // horizon T
	opt       Options          // normalized: defaults applied to K and Mu
	marginal  bool             // budget-based vs exact-marginal greedy
	policy    greenheft.Policy // first-pass mapping policy (EFT under map-search)
	mapSearch bool             // two-pass mapping search
}

// solveEntry is one cached response. The stored Response owns private
// copies of the mutable parts (Schedule); the workflow and zone set are
// retained as collision guards, exactly like planEntry guards the plan
// cache.
type solveEntry struct {
	key   solveKey
	wf    *DAG
	zones *ZoneSet
	resp  Response
	elem  *list.Element
}

// normalizeOptions applies the paper defaults to the tuning fields so that
// Options{} and Options{K: 3, Mu: 10} key identically. SearchWorkers is
// zeroed: it parallelizes the search without changing its result, so it
// must never fork cache keys — the same solve at different worker counts
// is one cache entry.
func normalizeOptions(opt Options) Options {
	opt.K = opt.EffectiveK()
	opt.Mu = opt.EffectiveMu()
	opt.SearchWorkers = 0
	return opt
}

// plan returns the memoized legacy (HEFT) entry for the workflow.
func (s *Solver) plan(ctx context.Context, wf *DAG) (*planEntry, bool, error) {
	return s.planFor(ctx, wf, greenheft.EFT, nil)
}

// planFor returns the memoized entry for (workflow, mapping policy),
// building it if needed. zones is consulted only by zone-aware policies:
// it enters the key as the zone-set digest (with a structural collision
// guard), because those policies map differently under different per-zone
// forecasts.
func (s *Solver) planFor(ctx context.Context, wf *DAG, pol greenheft.Policy, zones *ZoneSet) (*planEntry, bool, error) {
	if wf == nil {
		return nil, false, fmt.Errorf("cawosched: Plan: nil workflow")
	}
	if err := scherr.Canceled(ctx.Err()); err != nil {
		return nil, false, err
	}
	var pz *ZoneSet
	key := planKey{fp: wf.Fingerprint(), policy: pol}
	if pol.ZoneAware() {
		if zones == nil {
			return nil, false, fmt.Errorf("cawosched: mapping policy %s needs a per-zone supply: %w", pol, ErrInvalidRequest)
		}
		pz = zones
		key.zd = zones.Digest()
	}
	e, hit := s.planLookup(key, wf, pol, pz)
	if hit && (!e.wf.Equal(wf) || (pz != nil && !pz.EqualZoneSet(e.zones))) {
		// Fingerprint/digest collision: serve this request uncached rather
		// than return another workflow's (or another forecast's) plan.
		s.planMisses.Add(1)
		e = &planEntry{wf: wf, policy: pol, zones: pz}
		e.build(s.cluster)
		return e, false, e.err
	}
	if hit {
		s.planHits.Add(1)
	} else {
		s.planMisses.Add(1)
	}
	e.build(s.cluster)
	return e, hit, e.err
}

// Plan returns the scheduling instance for the workflow on the solver's
// cluster: the HEFT mapping/ordering plus the communication-enhanced DAG,
// memoized by the workflow's fingerprint (with a structural-equality guard
// against collisions). Concurrent calls with the same workflow share one
// construction; repeated calls are cache hits.
func (s *Solver) Plan(ctx context.Context, wf *DAG) (*Instance, bool, error) {
	e, hit, err := s.plan(ctx, wf)
	if err != nil {
		return nil, hit, err
	}
	return e.inst, hit, nil
}

// ProfileFor returns the request's power profile: the explicit one if set,
// otherwise a profile generated from the request's scenario over the
// horizon DeadlineFactor·D. It ignores the request's zone fields; use
// ZonesFor for the per-zone supply a Solve actually runs against.
func (s *Solver) ProfileFor(ctx context.Context, inst *Instance, req Request) (*Profile, error) {
	req.Zones = nil
	req.ZoneScenarios = nil
	zones, err := zonesFor(ctx, inst, req, ASAPMakespan(inst), true)
	if err != nil {
		return nil, err
	}
	return zones.Profile(0), nil
}

// ZonesFor returns the per-zone power supply of the request: the explicit
// Zones or Profile if set, otherwise one generated profile per cluster
// zone over the horizon DeadlineFactor·D (the paper's single cluster-wide
// profile when the cluster has one zone).
func (s *Solver) ZonesFor(ctx context.Context, inst *Instance, req Request) (*ZoneSet, error) {
	return zonesFor(ctx, inst, req, ASAPMakespan(inst), false)
}

// zonesFor is ZonesFor with D already known, so Solve computes the ASAP
// pass only once per request. forceSingle collapses generation to one
// cluster-wide profile regardless of the cluster's zones (ProfileFor).
func zonesFor(ctx context.Context, inst *Instance, req Request, D int64, forceSingle bool) (*ZoneSet, error) {
	zones := req.Zones
	if zones == nil && req.Profile != nil {
		zones = power.SingleZone(req.Profile)
	}
	if zones != nil {
		if err := schedule.CheckZones(inst, zones); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrInvalidRequest, err)
		}
		return zones, nil
	}
	if err := scherr.Canceled(ctx.Err()); err != nil {
		return nil, err
	}
	factor := req.DeadlineFactor
	if factor == 0 {
		factor = 2
	}
	if factor < 1 {
		return nil, fmt.Errorf("cawosched: deadline factor %v < 1: %w", factor, ErrInfeasibleDeadline)
	}
	T := int64(float64(D)*factor + 0.5)
	if T < D {
		T = D
	}
	intervals := req.Intervals
	if intervals <= 0 {
		intervals = 24
	}
	sc := req.Scenario
	if sc == 0 {
		sc = S1
	}
	K := inst.NumZones()
	if forceSingle {
		K = 1
	}
	if len(req.ZoneScenarios) > 0 {
		if len(req.ZoneScenarios) != K {
			return nil, fmt.Errorf("%w: %d zone scenarios for a cluster with %d zones", ErrInvalidRequest, len(req.ZoneScenarios), K)
		}
		if K == 1 {
			sc = req.ZoneScenarios[0]
		}
	}
	if K == 1 {
		// One zone draws the paper's profile straight from the seed, where
		// ZonesForInstance derives one stream per zone index: its own path,
		// so the bytes of generated single-zone profiles never move.
		prof, err := ProfileForInstance(inst, sc, T, intervals, req.Seed)
		if err != nil {
			return nil, err
		}
		return power.SingleZone(prof), nil
	}
	scenarios := req.ZoneScenarios
	if len(scenarios) == 0 {
		scenarios = []Scenario{sc}
	}
	return ZonesForInstance(inst, scenarios, T, intervals, req.Seed)
}

// resolveOptions picks the variant for a request and returns its options
// together with the canonical (or synthesized) display name.
func resolveOptions(req Request) (Options, string, error) {
	if req.Options != nil {
		return *req.Options, req.Options.Name(), nil
	}
	name := req.Variant
	if name == "" {
		name = DefaultVariant
	}
	opt, err := core.LookupVariant(name)
	if err != nil {
		return Options{}, "", err
	}
	return opt, opt.Name(), nil
}

// stageClock accumulates the wall-clock stage timings of one solve and
// mirrors each stage into the context's schedd_stage_latency_seconds
// histogram when a metrics registry is installed. The clock itself is a
// few time.Now calls per request, so it runs unconditionally.
type stageClock struct {
	last    time.Time
	timings []obs.StageTiming
	hist    obs.HistogramVec
}

func startStages(ctx context.Context) *stageClock {
	return &stageClock{
		last: time.Now(),
		hist: obs.MeterFrom(ctx).Histogram("schedd_stage_latency_seconds",
			"wall-clock latency of scheduler pipeline stages", nil, "stage"),
	}
}

// mark closes the current stage: everything since the previous mark (or
// the clock's start) is attributed to it.
func (c *stageClock) mark(stage string) {
	now := time.Now()
	d := now.Sub(c.last)
	c.last = now
	c.timings = append(c.timings, obs.StageTiming{Stage: stage, Micros: d.Microseconds()})
	c.hist.With(stage).Observe(d.Seconds())
}

// Solve runs the full pipeline for one request — plan (memoized), profile,
// schedule, validate — and returns the response. It is safe for concurrent
// use. Canceling ctx aborts the run promptly (the hot loops poll the
// context) with an error satisfying errors.Is(err, ErrCanceled) and
// errors.Is(err, ctx.Err()).
//
// When the context carries observability (see internal/obs), the solve
// runs under a "solve" span with plan/supply/cache/schedule children,
// records per-stage latency histograms, and counts into
// schedd_solves_total{variant,mapping,outcome}; with a bare context the
// instrumentation is a handful of nil checks.
func (s *Solver) Solve(ctx context.Context, req Request) (*Response, error) {
	ctx, sp := obs.Start(ctx, "solve")
	resp, err := s.doSolve(ctx, req)
	if sp != nil {
		if resp != nil {
			sp.SetAttr("variant", resp.Variant)
			sp.SetAttr("mapping", resp.Mapping)
			sp.SetAttr("cost", resp.Cost)
			sp.SetAttr("cache_hit", resp.CacheHit)
			sp.SetAttr("plan_hit", resp.PlanHit)
		}
		if err != nil {
			sp.SetAttr("error", err.Error())
			if code := scherr.Code(err); code != "" {
				sp.SetAttr("code", code)
			}
		}
		sp.End()
	}
	if m := obs.MeterFrom(ctx); m != nil {
		variant, mapping, outcome := req.Variant, "", "ok"
		switch {
		case err != nil:
			outcome = "error"
		case resp.CacheHit:
			outcome = "cache_hit"
		}
		if resp != nil {
			variant, mapping = resp.Variant, resp.Mapping
		} else if variant == "" {
			variant = DefaultVariant
		}
		m.Counter("schedd_solves_total", "completed solves by variant, mapping, and outcome",
			"variant", "mapping", "outcome").With(variant, mapping, outcome).Inc()
	}
	return resp, err
}

// doSolve is Solve without the instrumentation envelope.
func (s *Solver) doSolve(ctx context.Context, req Request) (*Response, error) {
	s.solves.Add(1)
	if err := scherr.Canceled(ctx.Err()); err != nil {
		return nil, err
	}
	clock := startStages(ctx)
	opt, variant, err := resolveOptions(req)
	if err != nil {
		return nil, err
	}
	if req.SearchWorkers > 0 {
		opt.SearchWorkers = req.SearchWorkers
	}
	pol := req.MappingPolicy
	if !pol.Valid() {
		return nil, fmt.Errorf("cawosched: unknown mapping policy %d: %w", int(pol), ErrInvalidRequest)
	}
	if req.Instance != nil && (req.MapSearch || pol != MapEFT) {
		return nil, fmt.Errorf("cawosched: mapping options need a workflow request (prebuilt instances carry their mapping): %w", ErrInvalidRequest)
	}

	// Resolve the instance plus its ASAP schedule and makespan D — from
	// the plan cache when the request names a workflow (one EST pass per
	// workflow lifetime), computed directly for a prebuilt instance. The
	// base (HEFT) plan anchors the horizon and the generated supply even
	// when another mapping policy runs, so every candidate mapping of a
	// request competes under the identical per-zone forecast.
	var inst *Instance
	var asap *Schedule
	var D int64
	planHit := false
	pctx, psp := obs.Start(ctx, "plan")
	if req.Instance != nil {
		inst = req.Instance
		asap = ASAP(inst)
		D = Makespan(inst, asap)
	} else {
		var e *planEntry
		e, planHit, err = s.plan(pctx, req.Workflow)
		if err != nil {
			psp.End()
			return nil, err
		}
		inst, asap, D = e.inst, e.asap, e.d
	}
	if psp != nil {
		psp.SetAttr("hit", planHit)
		psp.SetAttr("tasks", inst.N())
		psp.End()
	}
	clock.mark("plan")

	zctx, zsp := obs.Start(ctx, "supply")
	zones, err := zonesFor(zctx, inst, req, D, false)
	if err != nil {
		zsp.End()
		return nil, err
	}
	if zsp != nil {
		zsp.SetAttr("zones", zones.NumZones())
		zsp.SetAttr("horizon", zones.T())
		zsp.End()
	}
	clock.mark("supply")
	var prof *Profile
	if zones.Single() {
		prof = zones.Profile(0)
	}

	job := &solveJob{
		req: req, opt: opt, variant: variant, pol: pol,
		inst: inst, asap: asap, D: D, planHit: planHit,
		zones: zones, prof: prof,
	}

	// Prebuilt-instance requests are not cacheable (instances carry no
	// fingerprint): straight to the scheduler.
	if req.Instance != nil {
		resp, err := s.compute(ctx, clock, job)
		if err != nil {
			return nil, err
		}
		resp.Timings = clock.timings
		return resp, nil
	}

	// Second cache level: identical (workflow, zones, mapping, variant)
	// requests are served straight from the solve-response cache — before
	// any non-EFT mapping pass runs, so a warmed hit never pays for
	// rebuilding a mapped plan the stored response already embodies.
	key := solveKey{
		fp:        req.Workflow.Fingerprint(),
		digest:    zones.Digest(),
		deadline:  zones.T(),
		opt:       normalizeOptions(opt),
		marginal:  req.Marginal,
		mapSearch: req.MapSearch,
	}
	if !req.MapSearch {
		key.policy = pol
	}
	_, csp := obs.Start(ctx, "solve-cache")
	if resp, ok := s.solveCacheGet(key, req.Workflow, zones); ok {
		s.solveHits.Add(1)
		csp.SetAttr("hit", true)
		csp.End()
		clock.mark("cache")
		return finishShared(resp, job, clock), nil
	}
	csp.SetAttr("hit", false)
	csp.End()
	clock.mark("cache")

	// Singleflight: a thundering herd of identical requests costs one
	// solve — the first becomes the leader, the rest block on its flight
	// and share the response. Error results propagate to every follower
	// but are never cached; a follower whose own context dies detaches
	// without disturbing the leader.
	for {
		f, leader := s.joinFlight(key, req.Workflow, zones)
		if leader {
			return s.leadSolve(ctx, clock, key, f, job)
		}
		if f == nil {
			// Coalescing disabled, or a digest-colliding request is in
			// flight: solve solo (the put below overwrites collision
			// victims, freshest wins — exactly the cache's own policy).
			s.solveMisses.Add(1)
			resp, err := s.compute(ctx, clock, job)
			if err != nil {
				return nil, err
			}
			s.solveCachePut(key, req.Workflow, zones, resp)
			resp.Timings = clock.timings
			return resp, nil
		}

		// Follower: wait for the leader's published result (or our own
		// cancellation, which detaches without killing the leader).
		s.solveCoalesced.Add(1)
		_, wsp := obs.Start(ctx, "coalesce")
		select {
		case <-f.done:
			if f.err != nil {
				if wsp != nil {
					wsp.SetAttr("error", f.err.Error())
					wsp.End()
				}
				if errors.Is(f.err, ErrCanceled) && ctx.Err() == nil {
					// The leader's own context died, not ours: re-run the
					// election — one of the surviving followers becomes
					// the new leader and the herd still costs one solve.
					clock.mark("coalesce")
					continue
				}
				return nil, f.err
			}
			if wsp != nil {
				wsp.End()
			}
			clock.mark("coalesce")
			resp := *f.resp
			resp.Schedule = f.resp.Schedule.Clone()
			resp.Coalesced = true
			return finishShared(&resp, job, clock), nil
		case <-ctx.Done():
			if wsp != nil {
				wsp.SetAttr("detached", true)
				wsp.End()
			}
			return nil, scherr.Canceled(ctx.Err())
		}
	}
}

// solveJob carries one request's resolved state — everything doSolve
// derives before the cache consult — through the coalescing and compute
// paths.
type solveJob struct {
	req     Request
	opt     Options
	variant string
	pol     MappingPolicy
	inst    *Instance
	asap    *Schedule
	D       int64
	planHit bool
	zones   *ZoneSet
	prof    *Profile
}

// finishShared completes a response that came from a shared source (cache
// hit, tier hit, or a coalesced leader's flight) with this request's own
// per-request fields: its plan-consult outcome, its supply view, and its
// own wall-clock timings.
func finishShared(resp *Response, job *solveJob, clock *stageClock) *Response {
	resp.PlanHit = job.planHit
	resp.Zones = job.zones
	resp.Profile = job.prof
	resp.Timings = clock.timings
	return resp
}

// leadSolve is the leader side of a coalesced solve: consult the external
// tier (if any), otherwise run the scheduler; publish the outcome to the
// flight's followers; cache successes. The flight is always finished —
// even when the solve panics, followers receive an error instead of
// hanging (the panic still propagates on the leader's own request).
func (s *Solver) leadSolve(ctx context.Context, clock *stageClock, key solveKey, f *flight, job *solveJob) (resp *Response, err error) {
	s.solveMisses.Add(1)
	if s.testLeaderGate != nil {
		s.testLeaderGate()
	}
	published := false
	defer func() {
		if !published {
			s.finishFlight(key, f, nil, errLeaderAborted)
		}
	}()

	if s.tier != nil {
		tresp, ok := s.tierGet(ctx, key, job)
		clock.mark("tier")
		if ok {
			s.tierHits.Add(1)
			s.solveCachePut(key, job.req.Workflow, job.zones, tresp)
			published = true
			s.finishFlight(key, f, sharedCopy(tresp), nil)
			return finishShared(tresp, job, clock), nil
		}
	}

	resp, err = s.compute(ctx, clock, job)
	if err != nil {
		published = true
		s.finishFlight(key, f, nil, err) // propagate, never cache
		return nil, err
	}
	s.solveCachePut(key, job.req.Workflow, job.zones, resp)
	if s.tier != nil {
		s.tierPut(ctx, key, resp)
	}
	published = true
	s.finishFlight(key, f, sharedCopy(resp), nil)
	resp.Timings = clock.timings
	return resp, nil
}

// compute runs the scheduling work of one request — the map-search or
// fixed-mapping pipeline — and assembles the response. It is the part of
// a solve that coalescing shares and the caches memoize.
func (s *Solver) compute(ctx context.Context, clock *stageClock, job *solveJob) (*Response, error) {
	req, opt, zones, prof := job.req, job.opt, job.zones, job.prof
	inst, asap, D, planHit := job.inst, job.asap, job.D, job.planHit
	var resp *Response
	if req.MapSearch {
		mctx, msp := obs.Start(ctx, "map-search")
		resp, err := s.mapSearch(mctx, req, zones, opt, job.variant)
		if err != nil {
			msp.End()
			return nil, err
		}
		if msp != nil {
			msp.SetAttr("winner", resp.Mapping)
			msp.End()
		}
		clock.mark("map")
		resp.Profile = prof
		resp.PlanHit = planHit
		return resp, nil
	}
	if job.pol != MapEFT {
		mctx, msp := obs.Start(ctx, "map")
		me, mhit, err := s.planFor(mctx, req.Workflow, job.pol, zones)
		if err != nil {
			msp.End()
			return nil, err
		}
		if msp != nil {
			msp.SetAttr("policy", job.pol.String())
			msp.SetAttr("hit", mhit)
			msp.End()
		}
		clock.mark("map")
		inst, asap, D, planHit = me.inst, me.asap, me.d, mhit
	}
	sctx, ssp := obs.Start(ctx, "schedule")
	sched, st, err := core.RunWith(sctx, inst, zones, opt, req.Marginal)
	if err != nil {
		ssp.End()
		return nil, err
	}
	if ssp != nil {
		ssp.SetAttr("cost", st.Cost)
		ssp.End()
	}
	clock.mark("schedule")
	resp = &Response{
		Schedule: sched,
		Instance: inst,
		Zones:    zones,
		Profile:  prof,
		Stats:    st,
		Variant:  job.variant,
		Mapping:  job.pol.String(),
		D:        D,
		Deadline: zones.T(),
		Cost:     st.Cost,
		ASAPCost: schedule.CarbonCost(inst, asap, zones),
		PlanHit:  planHit,
	}
	return resp, nil
}

// mapSearch is the two-pass pipeline inside Solve: greenheft.Search over
// every candidate mapping policy, each plan taken from the memo (keyed per
// (policy, zone-digest)), all scheduled against the shared supply. The EFT
// candidate is feasible by construction whenever the supply was generated
// from the request, so the search never returns a plan worse than
// fixed-mapping scheduling. Responses are byte-identical at any
// opt.SearchWorkers.
func (s *Solver) mapSearch(ctx context.Context, req Request, zones *ZoneSet, opt Options, variant string) (*Response, error) {
	// The planning pass is sequential, so the closure needs no lock; the
	// entries are kept so the winner's asap and d need no second lookup.
	entries := make(map[greenheft.Policy]*planEntry)
	res, err := greenheft.Search(ctx, zones,
		greenheft.MapSolveOptions{Sched: opt, Marginal: req.Marginal, Workers: opt.SearchWorkers},
		func(ctx context.Context, pol greenheft.Policy) (*Instance, int64, error) {
			e, _, err := s.planFor(ctx, req.Workflow, pol, zones)
			if err != nil {
				return nil, 0, err
			}
			entries[pol] = e
			return e.inst, e.d, nil
		})
	if err != nil {
		return nil, err
	}
	if res.Schedule == nil {
		return nil, res.FirstErr
	}
	return &Response{
		Schedule: res.Schedule,
		Instance: res.Inst,
		Zones:    zones,
		Stats:    res.Stats,
		Variant:  variant,
		Mapping:  res.Policy.String(),
		D:        res.D,
		Deadline: zones.T(),
		Cost:     res.Cost,
		ASAPCost: schedule.CarbonCost(res.Inst, entries[res.Policy].asap, zones),
	}, nil
}
