// Package solve is the serving layer over the scheduler: the Solver one
// process shares across requests, its caches and singleflight
// (solvercache.go), and the cache tiers through which a fleet of schedd
// processes shares warm solves (cachetier.go, peertier.go). A request runs
// through Solve top to bottom: resolve, plan, supply, cache, then the
// flight leader's tier consult and compute. The root package re-exports
// Solver, Request, Response and SolverStats.
package solve

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ceg"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/greenheft"
	"repro/internal/heft"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/schedule"
	"repro/internal/scherr"
)

// DefaultVariant is the variant a Request resolves to when it names none:
// pressWR-LS, the paper's most frequent winner.
const DefaultVariant = "pressWR-LS"

// MapSearchName is the mapping spelling (CLI -mapping, wire "mapping"
// field) that selects the two-pass mapping search instead of one policy.
const MapSearchName = "map-search"

// Request describes one solve: which workflow (or prebuilt instance),
// which variant, and which power supply (explicit or generated from a
// scenario). The zero values of the tuning fields pick the paper's
// defaults, so the minimal request is {Workflow: wf}.
type Request struct {
	// Workflow is the DAG to plan (HEFT mapping + ordering, memoized per
	// workflow fingerprint). Ignored when Instance is set; one of the two
	// must be non-nil.
	Workflow *dag.DAG
	// Instance, if non-nil, skips planning and schedules this prebuilt
	// instance directly (it must belong to the solver's cluster).
	Instance *ceg.Instance

	// Variant is a canonical registry name, e.g. "pressWR-LS"; empty means
	// DefaultVariant. Ignored when Options is set.
	Variant string
	// Options, if non-nil, selects the variant explicitly and overrides
	// Variant.
	Options *core.Options

	// Zones, if non-nil, is the per-grid-zone green power supply; its
	// horizon is the deadline. It must carry exactly one zone per cluster
	// zone, index-matched (see platform.NewZoned); a cluster-wide profile
	// p is power.SingleZone(p). Otherwise a supply is generated from
	// Scenario over the horizon DeadlineFactor·D with Intervals intervals
	// and Seed — one profile per cluster zone (see ZonesForInstance).
	Zones *power.ZoneSet
	// Scenario selects the generated profile's shape (default S1).
	Scenario power.Scenario
	// ZoneScenarios, if set, selects one generated shape per cluster zone
	// (length must equal the cluster's zone count); it overrides Scenario
	// and is ignored when Zones is set.
	ZoneScenarios []power.Scenario
	// MappingPolicy selects the first-pass mapping of the workflow: the
	// zero value (greenheft.EFT) is the paper's carbon-blind HEFT mapping;
	// the other policies trade finish time against power draw or the zone
	// intensity forecast (see internal/greenheft). Requires a Workflow
	// request (prebuilt instances carry their mapping already).
	MappingPolicy greenheft.Policy
	// MapSearch runs the two-pass mapping search instead: map under every
	// candidate policy, schedule each mapping, keep the lowest-carbon
	// feasible plan. It overrides MappingPolicy; the winning policy is
	// reported in Response.Mapping.
	MapSearch bool

	// DeadlineFactor sets the deadline T = factor·D where D is the ASAP
	// makespan; 0 means the paper's default tolerance of 2 (see
	// DeadlineHorizon). Values below 1 are rejected (T < D is infeasible
	// by construction), and so are factors whose T does not fit an int64.
	DeadlineFactor float64
	// Intervals is the generated profile's interval count (default 24, at
	// most power.MaxIntervals).
	Intervals int
	// Seed drives profile generation (and nothing else).
	Seed uint64
}

// Response is the result of one solve.
type Response struct {
	Schedule *schedule.Schedule // the validated carbon-aware schedule
	Instance *ceg.Instance      // the (possibly memoized) scheduling instance
	Zones    *power.ZoneSet     // the per-zone supply the schedule was optimized against
	Stats    core.Stats         // scheduler instrumentation; Stats.Cost == Cost
	Variant  string             // canonical name of the variant that ran
	Mapping  string             // mapping policy of the plan ("heft" unless requested otherwise; the winner for map-search)
	D        int64              // ASAP makespan (tightest feasible deadline)
	Deadline int64              // deadline actually used (the supply horizon)
	Cost     int64              // carbon cost of Schedule
	ASAPCost int64              // carbon cost of the ASAP baseline under Zones
	PlanHit  bool               // true if the HEFT plan came from the memo cache
	CacheHit bool               // true if the whole response came from the solve cache (or the external tier)
	// Coalesced is true when this response was shared from a concurrent
	// identical request's in-flight solve (singleflight follower): the
	// schedule is identical to the leader's, but this request ran no
	// scheduler of its own.
	Coalesced bool
	// Timings are the wall-clock durations of the solve's top-level
	// stages, in the order they ran and named by the obs.Stage* constants.
	// Always measured (a handful of time.Now calls per request); never
	// cached — a cache hit reports the hit's own timings, not the original
	// solve's.
	Timings []obs.StageTiming

	// origin names the resident cache entries that answered this request,
	// as far as both caches did: what Remember records beside the body.
	origin residency
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
	// SolveRepeats counts the SolveHits that Recall answered: byte-identical
	// repeats served from the body index without decoding the request.
	SolveRepeats int64
	// RepeatIndexBytes is the memory the body index holds: the request and
	// answer bytes of every remembered body. It shares SolveCapacity.
	RepeatIndexBytes int64
	// TierHits counts solves served from the external cache tier (0
	// without a configured tier).
	TierHits     int64
	SolveEntries int // responses currently held by the solve cache
	// SolveCapacity is the solve cache's entry bound (0 = disabled).
	SolveCapacity int
	PlanEntries   int // plans currently memoized
	PlanCapacity  int // plan memo's entry bound (0 = disabled)
	// PlanContention / SolveContention count cache-lock acquisitions that
	// found the lock already held. Pure mechanism: workload-order
	// dependent, never part of any determinism contract.
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
	cluster *platform.Cluster

	// First cache level: memoized plans. Second: whole solve responses,
	// keyed by (workflow fingerprint, zone-set digest, deadline, normalized
	// options, greedy flavor, mapping). Each is one LRU under one lock
	// (see solvercache.go).
	planMemo   *cache[planKey, *planEntry]
	solveCache *cache[solveKey, *solveEntry]
	// In front of both: raw request bodies a front-end answered from them,
	// each remembering the two entries that answered it (see Recall). It
	// shares the solve cache's bound.
	repeats  *cache[repeatKey, *repeatEntry]
	bodySeed maphash.Seed

	// Singleflight: concurrent identical cacheable solves coalesce onto
	// one in-flight leader (see joinFlight). The table is tiny — one entry
	// per distinct key currently being solved — so one mutex suffices.
	fmu     sync.Mutex
	flights map[solveKey]*flight

	// Optional external cache tier between the in-process response cache
	// and a full solve (see CacheTier).
	tier CacheTier

	solves         atomic.Int64
	planHits       atomic.Int64
	planMisses     atomic.Int64
	solveHits      atomic.Int64
	solveMisses    atomic.Int64
	solveCoalesced atomic.Int64
	solveRepeats   atomic.Int64
	tierHits       atomic.Int64

	// testBodyHash, when set (tests only), replaces the body index's hash,
	// so that a test can force two bodies onto one index key.
	testBodyHash func([]byte) uint64
}

// defaultEntries bounds the plan memo, the solve-response cache and a
// MemoryTier unless told otherwise.
const defaultEntries = 4096

// planKey identifies one memoized plan: which workflow, under which
// mapping policy, against which zone forecast (zone-aware policies map
// differently under different supplies; zone-blind policies — HEFT among
// them — key with a zero digest, so they share one plan across supplies).
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
	wf     *dag.DAG
	policy greenheft.Policy
	zones  *power.ZoneSet // nil for zone-blind policies
	inst   *ceg.Instance
	asap   *schedule.Schedule
	d      int64
	err    error
}

func (e *planEntry) build(cluster *platform.Cluster) {
	e.once.Do(func() {
		if e.policy == greenheft.EFT {
			// greenheft's EFT is pinned identical to this; kept explicit.
			e.inst, e.err = PlanHEFT(e.wf, cluster)
		} else {
			e.inst, e.err = greenheft.MapInstance(e.wf, cluster, greenheft.Options{Policy: e.policy, Zones: e.zones})
		}
		if e.err == nil {
			e.asap = core.ASAP(e.inst)
			e.d = schedule.Makespan(e.inst, e.asap)
		}
	})
}

// NewSolver returns a solver bound to the given target cluster. Options
// set the caching layer's bounds and external tier, once.
func NewSolver(cluster *platform.Cluster, opts ...SolverOption) *Solver {
	cfg := solverConfig{
		solveCap: defaultEntries,
		planCap:  defaultEntries,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return &Solver{
		cluster:    cluster,
		planMemo:   newCache[planKey, *planEntry](cfg.planCap),
		solveCache: newCache[solveKey, *solveEntry](cfg.solveCap),
		repeats:    newCache[repeatKey, *repeatEntry](cfg.solveCap),
		bodySeed:   maphash.MakeSeed(),
		flights:    make(map[solveKey]*flight),
		tier:       cfg.tier,
	}
}

// Cluster returns the target platform the solver plans against.
func (s *Solver) Cluster() *platform.Cluster { return s.cluster }

// PeerTier returns the solver's external tier if it is a *PeerTier, whose
// local store a front-end serves to the fleet, and nil otherwise.
func (s *Solver) PeerTier() *PeerTier {
	pt, _ := s.tier.(*PeerTier)
	return pt
}

// Stats returns a snapshot of the solver's counters.
func (s *Solver) Stats() SolverStats {
	var indexed int64
	s.repeats.each(func(e *repeatEntry) { indexed += int64(len(e.body) + len(e.answer.Body)) })
	return SolverStats{
		Solves:           s.solves.Load(),
		PlanHits:         s.planHits.Load(),
		PlanMisses:       s.planMisses.Load(),
		SolveHits:        s.solveHits.Load(),
		SolveMisses:      s.solveMisses.Load(),
		SolveCoalesced:   s.solveCoalesced.Load(),
		SolveRepeats:     s.solveRepeats.Load(),
		RepeatIndexBytes: indexed,
		TierHits:         s.tierHits.Load(),
		SolveEntries:     s.solveCache.len(),
		SolveCapacity:    s.solveCache.cap,
		PlanEntries:      s.planMemo.len(),
		PlanCapacity:     s.planMemo.cap,
		PlanContention:   s.planMemo.contended.Load(),
		SolveContention:  s.solveCache.contended.Load(),
	}
}

// solveKey identifies one cacheable solve: which workflow, against which
// per-zone supply (the zone-set digest pins every zone's name and
// intervals and hence the horizon; a single-zone set digests exactly like
// its bare profile; the deadline is an extra collision bit),
// with which fully-normalized variant configuration.
type solveKey struct {
	fp        uint64           // workflow fingerprint
	digest    uint64           // power zone-set digest
	deadline  int64            // horizon T
	opt       core.Options     // normalized: defaults applied to K and Mu
	policy    greenheft.Policy // first-pass mapping policy (EFT under map-search)
	mapSearch bool             // two-pass mapping search
}

// solveEntry is one cached response, immutable once stored. The workflow
// and zone set are retained as collision guards, exactly like planEntry
// guards the plan cache.
type solveEntry struct {
	wf    *dag.DAG
	zones *power.ZoneSet
	resp  *Response // the shared form (see Response.shared)
}

// normalizeOptions applies the paper defaults to the tuning fields so that
// Options{} and Options{K: 3, Mu: 10} key identically.
func normalizeOptions(opt core.Options) core.Options {
	opt.K = opt.EffectiveK()
	opt.Mu = opt.EffectiveMu()
	return opt
}

var errNilWorkflow = errors.New("cawosched: Plan: nil workflow")

// planFor returns the memoized entry for (workflow, mapping policy),
// building it if needed. fp is wf's fingerprint: a request computes it
// once and hands it to every plan it looks up and to its solve key. zones
// is consulted only by zone-aware policies: it enters the key as the
// zone-set digest (with a structural collision guard), because those
// policies map differently under different per-zone forecasts.
func (s *Solver) planFor(ctx context.Context, wf *dag.DAG, fp uint64, pol greenheft.Policy, zones *power.ZoneSet) (*planEntry, bool, error) {
	if err := scherr.Canceled(ctx.Err()); err != nil {
		return nil, false, err
	}
	var pz *power.ZoneSet
	key := planKey{fp: fp, policy: pol}
	if pol.ZoneAware() {
		if zones == nil {
			return nil, false, fmt.Errorf("cawosched: mapping policy %s needs a per-zone supply: %w", pol, scherr.ErrInvalidRequest)
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
func (s *Solver) Plan(ctx context.Context, wf *dag.DAG) (*ceg.Instance, bool, error) {
	if wf == nil {
		return nil, false, errNilWorkflow
	}
	e, hit, err := s.planFor(ctx, wf, wf.Fingerprint(), greenheft.EFT, nil)
	if err != nil {
		return nil, hit, err
	}
	return e.inst, hit, nil
}

// ZonesFor returns the per-zone power supply of the request: the explicit
// Zones if set, otherwise one generated profile per cluster zone over the
// horizon DeadlineFactor·D (the paper's single cluster-wide profile when
// the cluster has one zone).
func (s *Solver) ZonesFor(ctx context.Context, inst *ceg.Instance, req Request) (*power.ZoneSet, error) {
	return zonesFor(ctx, inst, req, core.ASAPMakespan(inst))
}

// DeadlineHorizon returns the deadline T = factor·D, rounded to the
// nearest unit and never below D, for a workflow of ASAP makespan D.
// factor 0 selects the default 2; a factor below 1 is
// ErrInfeasibleDeadline; a factor whose deadline does not fit an int64
// (huge, +Inf or NaN) is ErrInvalidRequest.
func DeadlineHorizon(D int64, factor float64) (int64, error) {
	if factor == 0 {
		factor = 2
	}
	if factor < 1 {
		return 0, fmt.Errorf("cawosched: deadline factor %v < 1: %w", factor, scherr.ErrInfeasibleDeadline)
	}
	t := float64(D)*factor + 0.5
	if !(t < math.MaxInt64) { // false for NaN too
		return 0, fmt.Errorf("%w: deadline factor %v: deadline out of range", scherr.ErrInvalidRequest, factor)
	}
	return max(int64(t), D), nil
}

// ZonesForInstance generates the supply of a request without Zones: one
// green power profile per zone of the instance's cluster, zone z after
// scenarios[z] (or scenarios[0]) within the zone's own power corridor, over
// horizon T in j intervals. One zone is the paper's cluster-wide profile.
func ZonesForInstance(inst *ceg.Instance, scenarios []power.Scenario, T int64, j int, seed uint64) (*power.ZoneSet, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("%w: no scenarios", scherr.ErrInvalidRequest)
	}
	K := inst.NumZones()
	if K == 1 {
		gmin, gmax := power.PlatformBounds(inst.TotalIdlePower(), inst.Cluster.ComputeWork())
		prof, err := power.Generate(scenarios[0], T, j, gmin, gmax, rng.New(seed))
		if err != nil {
			return nil, err
		}
		return power.SingleZone(prof), nil
	}
	specs := make([]power.ZoneSpec, K)
	for z := 0; z < K; z++ {
		sc := scenarios[0]
		if len(scenarios) > 1 {
			sc = scenarios[z%len(scenarios)]
		}
		gmin, gmax := power.PlatformBounds(inst.ZoneIdlePower(z), inst.Cluster.ZoneComputeWork(z))
		specs[z] = power.ZoneSpec{Name: fmt.Sprintf("z%d", z), Scenario: sc, Gmin: gmin, Gmax: gmax}
	}
	return power.GenerateZones(specs, T, j, seed)
}

// zonesFor is ZonesFor with D already known, so Solve computes the ASAP
// pass only once per request.
func zonesFor(ctx context.Context, inst *ceg.Instance, req Request, D int64) (*power.ZoneSet, error) {
	if zones := req.Zones; zones != nil {
		if err := schedule.CheckZones(inst, zones); err != nil {
			return nil, fmt.Errorf("%w: %w", scherr.ErrInvalidRequest, err)
		}
		return zones, nil
	}
	if err := scherr.Canceled(ctx.Err()); err != nil {
		return nil, err
	}
	T, err := DeadlineHorizon(D, req.DeadlineFactor)
	if err != nil {
		return nil, err
	}
	intervals := req.Intervals
	if intervals <= 0 {
		intervals = 24
	}
	scenarios := req.ZoneScenarios
	if K := inst.NumZones(); len(scenarios) > 0 && len(scenarios) != K {
		return nil, fmt.Errorf("%w: %d zone scenarios for a cluster with %d zones", scherr.ErrInvalidRequest, len(scenarios), K)
	}
	if len(scenarios) == 0 {
		sc := req.Scenario
		if sc == 0 {
			sc = power.S1
		}
		scenarios = []power.Scenario{sc}
	}
	return ZonesForInstance(inst, scenarios, T, intervals, req.Seed)
}

// PlanHEFT computes a HEFT mapping and ordering for the workflow and
// builds the communication-enhanced scheduling instance from it: the plan
// memo's EFT plan.
func PlanHEFT(d *dag.DAG, c *platform.Cluster) (*ceg.Instance, error) {
	h, err := heft.Schedule(d, c)
	if err != nil {
		return nil, err
	}
	return ceg.Build(d, ceg.FromHEFT(h.Proc, h.Order, h.Finish), c)
}

// ParseMapping resolves a -mapping / wire "mapping" spelling into request
// options: a policy name selects that policy, MapSearchName selects the
// two-pass search, and "" (or "fixed") is the paper's HEFT mapping.
// Unknown spellings fail with ErrInvalidRequest.
func ParseMapping(name string) (greenheft.Policy, bool, error) {
	switch name {
	case "", "fixed":
		return greenheft.EFT, false, nil
	case MapSearchName:
		return greenheft.EFT, true, nil
	}
	pol, err := greenheft.ParsePolicy(name)
	if err != nil {
		return 0, false, fmt.Errorf("%w: unknown mapping %q (want a policy name or %q)", scherr.ErrInvalidRequest, name, MapSearchName)
	}
	return pol, false, nil
}

// resolveOptions picks the variant for a request and returns its options
// together with the canonical (or synthesized) display name.
func resolveOptions(req Request) (core.Options, string, error) {
	if req.Options != nil {
		return *req.Options, req.Options.Name(), nil
	}
	name := req.Variant
	if name == "" {
		name = DefaultVariant
	}
	opt, err := core.LookupVariant(name)
	if err != nil {
		return core.Options{}, "", err
	}
	return opt, opt.Name(), nil
}

// Solve runs the full pipeline for one request — plan (memoized), supply,
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
	finishSolve(ctx, sp, req.Variant, resp, err)
	return resp, err
}

// finishSolve closes a solve's instrumentation envelope: the attributes of
// its span and its count in schedd_solves_total. variant is the request's
// spelling, the label of a solve that failed before resolving it.
func finishSolve(ctx context.Context, sp *obs.Span, variant string, resp *Response, err error) {
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
		mapping, outcome := "", "ok"
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
}

// solveJob is one request on its way through doSolve: what it resolved
// to, then what each stage found.
type solveJob struct {
	req     Request
	opt     core.Options
	variant string

	// The plan the scheduler runs on, with its ASAP schedule and makespan:
	// the base (HEFT) plan after the plan stage, the mapped plan once a
	// non-default mapping policy has run. planHit is that plan's memo
	// outcome.
	inst    *ceg.Instance
	asap    *schedule.Schedule
	D       int64
	planHit bool

	fp     uint64    // the workflow's fingerprint, computed once
	origin residency // the base plan and the solve entry, where the caches answered

	zones   *power.ZoneSet
	timings []obs.StageTiming
}

// doSolve is Solve without the instrumentation envelope: resolve → plan →
// supply → cache → flight{tier → compute}, or straight to compute for a
// prebuilt instance.
func (s *Solver) doSolve(ctx context.Context, req Request) (*Response, error) {
	s.solves.Add(1)
	if err := scherr.Canceled(ctx.Err()); err != nil {
		return nil, err
	}
	opt, variant, err := resolveOptions(req)
	if err != nil {
		return nil, err
	}
	pol := req.MappingPolicy
	if !pol.Valid() {
		return nil, fmt.Errorf("cawosched: unknown mapping policy %d: %w", int(pol), scherr.ErrInvalidRequest)
	}
	if req.Instance != nil && (req.MapSearch || pol != greenheft.EFT) {
		return nil, fmt.Errorf("cawosched: mapping options need a workflow request (prebuilt instances carry their mapping): %w", scherr.ErrInvalidRequest)
	}
	job := &solveJob{req: req, opt: opt, variant: variant, timings: make([]obs.StageTiming, 0, 4)}

	// The instance plus its ASAP schedule and makespan D — from the plan
	// memo when the request names a workflow (one EST pass per workflow
	// lifetime), computed directly for a prebuilt instance. The base
	// (HEFT) plan anchors the horizon and the generated supply even when
	// another mapping policy runs, so every candidate mapping of a request
	// competes under the identical per-zone forecast.
	pctx, st := obs.BeginStage(ctx, obs.StagePlan)
	if inst := req.Instance; inst != nil {
		job.inst, job.asap = inst, core.ASAP(inst)
		job.D = schedule.Makespan(inst, job.asap)
	} else if wf := req.Workflow; wf == nil {
		err = errNilWorkflow
	} else {
		var e *planEntry
		job.fp = wf.Fingerprint()
		if e, job.planHit, err = s.planFor(pctx, wf, job.fp, greenheft.EFT, nil); err == nil {
			job.inst, job.asap, job.D = e.inst, e.asap, e.d
			if job.planHit {
				job.origin.planKey, job.origin.plan = planKey{fp: job.fp, policy: greenheft.EFT}, e
			}
		}
	}
	if err == nil && st.Span != nil {
		st.Span.SetAttr("hit", job.planHit)
		st.Span.SetAttr("tasks", job.inst.N())
	}
	st.End(&job.timings)
	if err != nil {
		return nil, err
	}

	zctx, st := obs.BeginStage(ctx, obs.StageSupply)
	job.zones, err = zonesFor(zctx, job.inst, req, job.D)
	if err == nil && st.Span != nil {
		st.Span.SetAttr("zones", job.zones.NumZones())
		st.Span.SetAttr("horizon", job.zones.T())
	}
	st.End(&job.timings)
	if err != nil {
		return nil, err
	}

	var resp *Response
	if req.Instance != nil {
		// Not cacheable: a prebuilt instance carries no fingerprint.
		resp, err = s.compute(ctx, job)
	} else {
		resp, err = s.solveCached(ctx, job)
	}
	if err != nil {
		return nil, err
	}
	// The one exit. Whatever produced resp — the scheduler, either cache
	// level, or another request's flight — these fields are this request's
	// own: its plan-memo outcome, its supply view, its wall clock.
	resp.PlanHit = job.planHit
	resp.origin = job.origin
	resp.Zones = job.zones
	resp.Timings = job.timings
	return resp, nil
}

// solveCached serves a workflow request through the second cache level:
// the solve-response cache, then the singleflight, whose leader consults
// the tier and runs the scheduler. The cache is consulted before any
// non-EFT mapping pass runs, so a warmed hit never pays for rebuilding a
// mapped plan the stored response already embodies.
func (s *Solver) solveCached(ctx context.Context, job *solveJob) (*Response, error) {
	wf, zones := job.req.Workflow, job.zones
	_, st := obs.BeginStage(ctx, obs.StageCache) // keying is the larger part of a consult
	key := solveKey{
		fp:        job.fp,
		digest:    zones.Digest(),
		deadline:  zones.T(),
		opt:       normalizeOptions(job.opt),
		mapSearch: job.req.MapSearch,
	}
	if !job.req.MapSearch {
		key.policy = job.req.MappingPolicy
	}
	resp, e := s.solveCacheGet(key, wf, zones)
	st.Span.SetAttr("hit", e != nil)
	st.End(&job.timings)
	if e != nil {
		s.solveHits.Add(1)
		job.origin.solveKey, job.origin.solve = key, e
		return resp, nil
	}

	// Singleflight: a thundering herd of identical requests costs one
	// solve — the first becomes the leader, the rest block on its flight
	// and share the response. Error results propagate to every follower
	// but are never cached; a follower whose own context dies detaches
	// without disturbing the leader.
	for {
		f, leader := s.joinFlight(key, wf, zones)
		if leader {
			return s.leadSolve(ctx, key, f, job)
		}
		if f == nil {
			// A digest-colliding request is in flight: solve solo (the put
			// overwrites collision victims, freshest wins).
			s.solveMisses.Add(1)
			resp, err := s.compute(ctx, job)
			if err == nil {
				s.solveCachePut(key, wf, zones, resp.shared())
			}
			return resp, err
		}

		s.solveCoalesced.Add(1)
		_, st := obs.BeginStage(ctx, obs.StageCoalesce)
		select {
		case <-f.done:
		case <-ctx.Done():
			st.Span.SetAttr("detached", true)
			st.End(&job.timings)
			return nil, scherr.Canceled(ctx.Err())
		}
		if f.err != nil && st.Span != nil {
			st.Span.SetAttr("error", f.err.Error())
		}
		st.End(&job.timings)
		if f.err == nil {
			resp := f.resp.checkout()
			resp.Coalesced = true
			return resp, nil
		}
		if !errors.Is(f.err, scherr.ErrCanceled) || ctx.Err() != nil {
			return nil, f.err
		}
		// The leader's own context died, not ours: re-run the election —
		// one of the surviving followers becomes the new leader and the
		// herd still costs one solve.
	}
}

// leadSolve is the leader side of a coalesced solve: consult the external
// tier (if any), otherwise run the scheduler; store a success in the cache
// and the tier; publish the outcome to the flight's followers (after the
// put: see finishFlight). The flight is always finished — when the solve
// panics, followers receive errLeaderAborted instead of hanging, and the
// panic still propagates on the leader's own request.
func (s *Solver) leadSolve(ctx context.Context, key solveKey, f *flight, job *solveJob) (resp *Response, err error) {
	s.solveMisses.Add(1)
	var shared *Response
	ferr := errLeaderAborted
	defer func() { s.finishFlight(key, f, shared, ferr) }()

	if s.tier != nil {
		tctx, st := obs.BeginStage(ctx, obs.StageTier)
		resp = s.tierGet(tctx, key, job)
		st.Span.SetAttr("hit", resp != nil)
		st.End(&job.timings)
	}
	if resp != nil {
		s.tierHits.Add(1)
	} else {
		if resp, err = s.compute(ctx, job); err != nil {
			ferr = err // propagates to every follower, and is never cached
			return nil, err
		}
		if s.tier != nil {
			s.tierPut(ctx, key, resp)
		}
	}
	shared, ferr = resp.shared(), nil
	s.solveCachePut(key, job.req.Workflow, job.zones, shared)
	return resp, nil
}

// compute runs the scheduling work of one request — the map-search or
// fixed-mapping pipeline — and assembles the response. It is the part of
// a solve that coalescing shares and the caches memoize.
func (s *Solver) compute(ctx context.Context, job *solveJob) (*Response, error) {
	if job.req.MapSearch {
		mctx, st := obs.BeginStage(ctx, obs.StageMap)
		st.Span.SetAttr("search", true)
		resp, err := s.mapSearch(mctx, job)
		if err == nil && st.Span != nil {
			st.Span.SetAttr("winner", resp.Mapping)
		}
		st.End(&job.timings)
		return resp, err
	}
	pol := job.req.MappingPolicy
	if pol != greenheft.EFT {
		mctx, st := obs.BeginStage(ctx, obs.StageMap)
		e, hit, err := s.planFor(mctx, job.req.Workflow, job.fp, pol, job.zones)
		if st.Span != nil {
			st.Span.SetAttr("policy", pol.String())
			st.Span.SetAttr("hit", hit)
		}
		st.End(&job.timings)
		if err != nil {
			return nil, err
		}
		job.inst, job.asap, job.D, job.planHit = e.inst, e.asap, e.d, hit
	}
	_, st := obs.BeginStage(ctx, obs.StageSchedule)
	start := time.Now()
	sched, stats, err := core.Run(ctx, job.inst, job.zones, job.opt)
	if st.Span != nil {
		msg := ""
		if err != nil {
			msg = err.Error()
		} else {
			st.Span.SetAttr("cost", stats.Cost)
		}
		traceRun(st.Span, start, job.zones, stats, msg)
	}
	st.End(&job.timings)
	if err != nil {
		return nil, err
	}
	return &Response{
		Schedule: sched,
		Instance: job.inst,
		Stats:    stats,
		Variant:  job.variant,
		Mapping:  pol.String(),
		D:        job.D,
		Deadline: job.zones.T(),
		Cost:     stats.Cost,
		ASAPCost: schedule.CarbonCost(job.inst, job.asap, job.zones),
	}, nil
}

// mapSearch is the two-pass pipeline inside Solve: greenheft.Search over
// every candidate mapping policy, each plan taken from the memo (keyed per
// (policy, zone-digest)), all scheduled one after another against the
// shared supply. The EFT candidate is feasible by construction whenever
// the supply was generated from the request, so the search never returns
// a plan worse than fixed-mapping scheduling. A search that returns
// counts its candidates in schedd_mapsearch_candidates_total and traces
// them (traceCandidates); a canceled one does neither.
func (s *Solver) mapSearch(ctx context.Context, job *solveJob) (*Response, error) {
	req, zones, opt := job.req, job.zones, job.opt
	// The planning pass is sequential (greenheft.PlanFunc), so the closure
	// needs no lock; the entries are kept so the winner's asap and d need
	// no second lookup. The last plan's end is when the solves began.
	entries := make(map[greenheft.Policy]*planEntry)
	var planned time.Time
	res, err := greenheft.Search(ctx, zones, greenheft.MapSolveOptions{Sched: opt},
		func(ctx context.Context, pol greenheft.Policy) (*ceg.Instance, int64, error) {
			e, _, err := s.planFor(ctx, req.Workflow, job.fp, pol, zones)
			if err != nil {
				return nil, 0, err
			}
			entries[pol] = e
			planned = time.Now()
			return e.inst, e.d, nil
		})
	if err != nil {
		return nil, err
	}
	candidates := obs.MeterFrom(ctx).Counter("schedd_mapsearch_candidates_total",
		"map-search candidate mappings scheduled, by policy and outcome", "policy", "outcome")
	for _, out := range res.Outcomes {
		outcome := "ok"
		if out.Err != "" {
			outcome = "error"
		}
		candidates.With(out.Policy.String(), outcome).Inc()
	}
	traceCandidates(obs.SpanFrom(ctx), planned, zones, res.Outcomes)
	if res.Schedule == nil {
		return nil, res.FirstErr
	}
	return &Response{
		Schedule: res.Schedule,
		Instance: res.Inst,
		Stats:    res.Stats,
		Variant:  job.variant,
		Mapping:  res.Policy.String(),
		D:        res.D,
		Deadline: zones.T(),
		Cost:     res.Cost,
		ASAPCost: schedule.CarbonCost(res.Inst, entries[res.Policy].asap, zones),
	}, nil
}

// traceCandidates records a map-search's candidates under its map span
// sp, one "map-candidate" child each with its run's phases below it. The
// candidates ran back to back from start, each for as long as its phases
// took.
func traceCandidates(sp *obs.Span, start time.Time, zones *power.ZoneSet, outs []greenheft.PolicyOutcome) {
	if sp == nil {
		return
	}
	for _, out := range outs {
		took := out.Stats.GreedyTime + out.Stats.LSTime
		csp := sp.Child("map-candidate", start, took)
		csp.SetAttr("policy", out.Policy.String())
		if out.Err != "" {
			csp.SetAttr("error", out.Err)
		} else {
			csp.SetAttr("cost", out.Stats.Cost)
		}
		traceRun(csp, start, zones, out.Stats, out.Err)
		start = start.Add(took)
	}
}

// traceRun records the phases of one core.Run under sp, the span it ran
// in: a "greedy" child and, when the local search ran, a "local-search"
// child, timed by the run's Stats from its start on. errText is the run's
// error, "" on success; it goes to the phase that failed, which is the
// greedy unless the local search had started.
func traceRun(sp *obs.Span, start time.Time, zones *power.ZoneSet, st core.Stats, errText string) {
	lsRan := st.LSRounds > 0
	g := sp.Child("greedy", start, st.GreedyTime)
	if errText != "" && !lsRan {
		g.SetAttr("error", errText)
		return
	}
	g.SetAttr("cost", st.GreedyCost)
	g.SetAttr("intervals", st.Intervals)
	g.SetAttr("fallback_starts", st.FallbackStarts)
	if !lsRan {
		return
	}
	ls := sp.Child("local-search", start.Add(st.GreedyTime), st.LSTime)
	if errText != "" {
		ls.SetAttr("error", errText)
		return
	}
	ls.SetAttr("rounds", st.LSRounds)
	ls.SetAttr("moves", st.LSMoves)
	ls.SetAttr("gain", st.LSGain)
	ls.SetAttr("scans", st.LSScans)
	ls.SetAttr("zones", zones.NumZones())
	dense := 0
	if schedule.DenseHorizon(zones.T()) {
		dense = zones.NumZones()
	}
	ls.SetAttr("dense_zones", dense)
	ls.SetAttr("evals", st.LSEvals)
}
