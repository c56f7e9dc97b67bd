// Package cawosched is a carbon-aware workflow scheduler: a Go
// implementation of "Carbon-Aware Workflow Scheduling with Fixed Mapping
// and Deadline Constraint" (Schweisgut, Benoit, Robert, Meyerhenke,
// ICPP 2025).
//
// Given a workflow DAG, a fixed mapping and ordering of its tasks on a
// heterogeneous cluster (e.g. produced by HEFT), a deadline, and a
// time-varying green power profile, the scheduler shifts task start times
// into low-carbon intervals while respecting every precedence constraint
// and the deadline.
//
// # Typical usage
//
//	wf, _ := cawosched.GenerateWorkflow(cawosched.Methylseq, 1000, 42)
//	solver := cawosched.NewSolver(cawosched.SmallCluster(42))
//	resp, _ := solver.Solve(ctx, cawosched.Request{
//		Workflow:       wf,
//		Variant:        "pressWR-LS", // the paper's best variant
//		Scenario:       cawosched.S1,
//		DeadlineFactor: 2, // deadline = 2 × the ASAP makespan
//		Seed:           42,
//	})
//	fmt.Println(resp.Cost, resp.ASAPCost)
//
// The supply a schedule is optimized against is a ZoneSet: one green power
// profile per grid zone of the cluster, of which a single cluster-wide
// zone is the paper's setting. Every entry point takes a *ZoneSet; a
// caller holding a bare *Profile wraps it with SingleZone.
//
// The heavy lifting lives in the internal packages this package wraps
// (dag, platform, power, wfgen, heft, greenheft, ceg, schedule, core, dp,
// exact); this package is the stable surface intended for downstream use.
package cawosched

import (
	"context"
	"fmt"
	"io"

	"repro/internal/ceg"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/exact"
	"repro/internal/greenheft"
	"repro/internal/heft"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/scherr"
	"repro/internal/solve"
	"repro/internal/wfgen"
)

// Core types re-exported for the public API.
type (
	// DAG is a weighted workflow graph.
	DAG = dag.DAG
	// Cluster is the target platform (compute nodes + communication links).
	Cluster = platform.Cluster
	// ProcType describes a processor family (speed, idle and work power).
	ProcType = platform.ProcType
	// Profile is a green power profile over the horizon [0, T).
	Profile = power.Profile
	// Interval is one constant-budget window of a profile.
	Interval = power.Interval
	// Zone is a named grid zone with its own green power profile.
	Zone = power.Zone
	// ZoneSet is the per-zone green power supply of a geo-distributed
	// cluster (one zone — the paper's setting — is the degenerate case).
	ZoneSet = power.ZoneSet
	// ZoneSpec parameterizes one zone of a generated ZoneSet.
	ZoneSpec = power.ZoneSpec
	// ZoneCost is the per-zone carbon accounting of a schedule.
	ZoneCost = schedule.ZoneCost
	// Scenario selects a renewable-supply shape (S1..S4).
	Scenario = power.Scenario
	// Instance is a scheduling problem with fixed mapping and ordering.
	Instance = ceg.Instance
	// Mapping is the fixed task→processor assignment with per-processor
	// order.
	Mapping = ceg.Mapping
	// Schedule assigns a start time to every task (and communication).
	Schedule = schedule.Schedule
	// Options selects a CaWoSched variant.
	Options = core.Options
	// Score is the greedy ordering criterion.
	Score = core.Score
	// Stats reports instrumentation from a scheduler run.
	Stats = core.Stats
	// Family identifies a synthetic workflow family.
	Family = wfgen.Family
	// HEFTResult is the reference schedule produced by HEFT.
	HEFTResult = heft.Result
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

// The request/response entry point of internal/solve: a Solver, one per
// target cluster, is safe for concurrent use and memoizes plans and whole
// responses; the minimal Request is {Workflow: wf}.
type (
	Solver      = solve.Solver
	Request     = solve.Request
	Response    = solve.Response
	SolverStats = solve.SolverStats
)

// NewSolver returns a solver bound to the given target cluster, with the
// default cache bounds and no external cache tier.
func NewSolver(cluster *Cluster) *Solver { return solve.NewSolver(cluster) }

// DefaultVariant (pressWR-LS, the paper's most frequent winner) is what a
// Request naming no variant runs; MapSearchName is the mapping spelling
// (CLI -mapping, wire "mapping") that selects the two-pass mapping search.
const (
	DefaultVariant = solve.DefaultVariant
	MapSearchName  = solve.MapSearchName
)

// DeadlineHorizon returns the deadline T = factor·D, rounded to the
// nearest unit and never below D, for a workflow of ASAP makespan D.
// factor 0 selects the default 2; a factor below 1 is
// ErrInfeasibleDeadline; a factor whose deadline does not fit an int64
// (huge, +Inf or NaN) is ErrInvalidRequest.
func DeadlineHorizon(D int64, factor float64) (int64, error) { return solve.DeadlineHorizon(D, factor) }

// Scenario constants (Section 6.1).
const (
	S1 = power.S1 // −x² solar-day shape
	S2 = power.S2 // x² midday-start shape
	S3 = power.S3 // sine over 24h
	S4 = power.S4 // constant (storage / nuclear)
)

// Score constants (Section 5.2).
const (
	ScoreSlack     = core.ScoreSlack
	ScoreSlackW    = core.ScoreSlackW
	ScorePressure  = core.ScorePressure
	ScorePressureW = core.ScorePressureW
)

// Workflow family constants.
const (
	Atacseq   = wfgen.Atacseq
	Bacass    = wfgen.Bacass
	Eager     = wfgen.Eager
	Methylseq = wfgen.Methylseq
)

// NewWorkflow returns an empty workflow with n unit-weight tasks; add
// edges and weights through the DAG methods.
func NewWorkflow(n int) *DAG { return dag.New(n) }

// ReadWorkflowDOT parses a workflow from GraphViz DOT syntax (as written
// by WriteWorkflowDOT, or the bare edge-list subset of Nextflow exports).
func ReadWorkflowDOT(r io.Reader) (*DAG, error) { return dag.ReadDOT(r) }

// WriteWorkflowDOT serializes a workflow in GraphViz DOT syntax.
func WriteWorkflowDOT(w io.Writer, d *DAG, name string) error { return d.WriteDOT(w, name) }

// GenerateWorkflow synthesizes a workflow of the given family with exactly
// n tasks (deterministic in the seed).
func GenerateWorkflow(f Family, n int, seed uint64) (*DAG, error) {
	return wfgen.Generate(f, n, seed)
}

// SmallCluster returns the paper's 72-node heterogeneous cluster.
func SmallCluster(seed uint64) *Cluster { return platform.Small(seed) }

// LargeCluster returns the paper's 144-node heterogeneous cluster.
func LargeCluster(seed uint64) *Cluster { return platform.Large(seed) }

// NewCluster builds a custom cluster from processor types and counts.
func NewCluster(types []ProcType, counts []int, seed uint64) *Cluster {
	return platform.New(types, counts, seed)
}

// NewZonedCluster builds a custom cluster with an explicit grid-zone
// assignment: zones[i] is the zone of compute processor i (ids must be
// contiguous from 0). Zone indices line up with the ZoneSet a solve runs
// against.
func NewZonedCluster(types []ProcType, counts []int, zones []int, seed uint64) *Cluster {
	return platform.NewZoned(types, counts, zones, seed)
}

// SmallZonedCluster returns the paper's 72-node cluster split round-robin
// into the given number of grid zones (≤ 1 is identical to SmallCluster).
func SmallZonedCluster(seed uint64, zones int) *Cluster { return platform.SmallZoned(seed, zones) }

// LargeZonedCluster returns the paper's 144-node cluster split
// round-robin into the given number of grid zones.
func LargeZonedCluster(seed uint64, zones int) *Cluster { return platform.LargeZoned(seed, zones) }

// RoundRobinZones returns the zone assignment dealing P compute
// processors into k zones round-robin (processor i → zone i mod k).
func RoundRobinZones(P, k int) []int { return platform.RoundRobinZones(P, k) }

// SingleZone wraps a cluster-wide profile into the degenerate one-zone
// set; every zone-aware entry point accepts it and reproduces the paper's
// single-profile evaluation exactly.
func SingleZone(p *Profile) *ZoneSet { return power.SingleZone(p) }

// NewZoneSet builds a validated zone set (unique names, equal horizons).
func NewZoneSet(zones ...Zone) (*ZoneSet, error) { return power.NewZoneSet(zones...) }

// PlanHEFT computes a HEFT mapping and ordering for the workflow and
// builds the communication-enhanced scheduling instance from it. This is
// the "given mapping" the carbon-aware scheduler then improves.
func PlanHEFT(d *DAG, c *Cluster) (*Instance, error) { return solve.PlanHEFT(d, c) }

// HEFT exposes the raw HEFT result (mapping, order, reference times).
func HEFT(d *DAG, c *Cluster) (*HEFTResult, error) { return heft.Schedule(d, c) }

// BuildInstance builds a scheduling instance from an explicit mapping.
func BuildInstance(d *DAG, m *Mapping, c *Cluster) (*Instance, error) {
	return ceg.Build(d, m, c)
}

// ASAP returns the carbon-unaware baseline schedule (every task at its
// earliest start time).
func ASAP(inst *Instance) *Schedule { return core.ASAP(inst) }

// ASAPMakespan returns D, the ASAP makespan — the tightest feasible
// deadline for the instance.
func ASAPMakespan(inst *Instance) int64 { return core.ASAPMakespan(inst) }

// ZonesForInstance generates one green power profile per grid zone of the
// instance's cluster: zone z follows scenarios[z] (or scenarios[0] when a
// single scenario is given) within the zone's own corridor
// [Σ idle_z, Σ idle_z + 0.8·Σ work_z] over horizon T split into j
// intervals. A one-zone cluster gets the paper's cluster-wide profile,
// drawn straight from the seed and wrapped with SingleZone; on more zones
// the randomness is derived per zone index. Either way the set is
// deterministic in (cluster, scenarios, T, j, seed).
func ZonesForInstance(inst *Instance, scenarios []Scenario, T int64, j int, seed uint64) (*ZoneSet, error) {
	return solve.ZonesForInstance(inst, scenarios, T, j, seed)
}

// ConstantProfile returns a single-interval profile (useful for tests and
// as a deadline-only horizon).
func ConstantProfile(T, budget int64) *Profile { return power.Constant(T, budget) }

// Variants returns the 8 greedy variants with the given local-search
// setting; AllVariants returns all 16.
func Variants(localSearch bool) []Options { return core.Variants(localSearch) }

// AllVariants returns the paper's 16 heuristics.
func AllVariants() []Options { return core.AllVariants() }

// CarbonCostZones evaluates a schedule's total carbon cost under per-zone
// green power: the sum over grid zones of each zone's interval sweep (the
// polynomial interval sweep of Appendix A.1, once per zone).
func CarbonCostZones(inst *Instance, s *Schedule, zs *ZoneSet) int64 {
	return schedule.CarbonCost(inst, s, zs)
}

// CostBreakdownZones returns the per-zone, per-interval carbon accounting
// of a schedule; the zone Cost fields sum to CarbonCostZones.
func CostBreakdownZones(inst *Instance, s *Schedule, zs *ZoneSet) []ZoneCost {
	return schedule.CostBreakdown(inst, s, zs)
}

// RunZonesContext executes one CaWoSched variant against per-zone green
// power; the deadline is the set's common horizon zs.T(). A canceled ctx
// aborts the run within one greedy / local-search stride with an error
// satisfying both errors.Is(err, ErrCanceled) and
// errors.Is(err, ctx.Err()). For the full request/response pipeline use a
// Solver with Request.Zones.
func RunZonesContext(ctx context.Context, inst *Instance, zs *ZoneSet, opt Options) (*Schedule, Stats, error) {
	return core.Run(ctx, inst, zs, opt)
}

// Validate checks that s is feasible for inst with deadline T.
func Validate(inst *Instance, s *Schedule, T int64) error {
	return schedule.Validate(inst, s, T)
}

// Makespan returns the completion time of the schedule.
func Makespan(inst *Instance, s *Schedule) int64 { return schedule.Makespan(inst, s) }

// OptimalUniprocessor solves the single-processor case exactly with the
// fully polynomial dynamic program of Theorem 4.1: tasks run in the given
// order on one processor drawing idle power always and idle+work while
// busy. It returns optimal start times and the optimal carbon cost.
func OptimalUniprocessor(durations []int64, idle, work int64, prof *Profile) ([]int64, int64, error) {
	res, err := dp.Solve(&dp.Problem{Dur: durations, Idle: idle, Work: work, Prof: prof})
	if err != nil {
		return nil, 0, err
	}
	return res.Start, res.Cost, nil
}

// OptimalScheduleContext computes a provably optimal schedule for a tiny
// instance by branch-and-bound (roughly ≤ 12 tasks). maxNodes bounds the
// search (0 = default); ErrBudgetExhausted is returned if it is exhausted.
// A canceled ctx aborts the search, returning the incumbent found so far
// (if any) alongside the ErrCanceled-wrapping error.
func OptimalScheduleContext(ctx context.Context, inst *Instance, zs *ZoneSet, maxNodes int64) (*Schedule, int64, error) {
	return exact.Solve(ctx, inst, zs, exact.Options{MaxNodes: maxNodes})
}

// ALAP returns the As-Late-As-Possible comparator schedule for deadline T.
func ALAP(inst *Instance, T int64) (*Schedule, error) { return core.ALAP(inst, T) }

// AnnealOptions tunes the simulated-annealing improver.
type AnnealOptions = core.AnnealOptions

// AnnealContext improves a feasible schedule in place by simulated
// annealing (a randomized alternative to the paper's hill climber) and
// returns the final carbon cost. The result is never worse than the input:
// on a canceled ctx the best schedule found so far is restored and
// returned with its cost alongside the ErrCanceled-wrapping error.
func AnnealContext(ctx context.Context, inst *Instance, zs *ZoneSet, s *Schedule, opt AnnealOptions) (int64, error) {
	return core.Anneal(ctx, inst, zs, s, opt)
}

// MappingPolicy selects the processor-selection rule of the carbon-aware
// mapping pass (the Section 7 two-pass extension).
type MappingPolicy = greenheft.Policy

// Mapping policies.
const (
	MapEFT           = greenheft.EFT
	MapLowPower      = greenheft.LowPower
	MapEnergyPerWork = greenheft.EnergyPerWork
	// MapZoneGreen blends finish time with the candidate processor's zone
	// intensity forecast over the task's tentative window.
	MapZoneGreen = greenheft.ZoneGreen
	// MapZoneEnergyPerWork blends task energy with the zone forecast.
	MapZoneEnergyPerWork = greenheft.ZoneEnergyPerWork
)

// MappingPolicies returns every mapping policy, the candidate set of the
// map-search pipeline (MapEFT first, so the fixed mapping always competes).
func MappingPolicies() []MappingPolicy { return greenheft.AllPolicies() }

// ParseMappingPolicy resolves a mapping policy name ("heft", "lowpower",
// "energy", "zonegreen", "zoneenergy") as printed by MappingPolicy.String.
func ParseMappingPolicy(name string) (MappingPolicy, error) {
	return greenheft.ParsePolicy(name)
}

// PlanGreenZones computes a carbon-aware mapping (the Section 7
// extension) and builds the scheduling instance from it; with MapEFT it
// is identical to PlanHEFT. The per-zone power forecast zs is required by
// the zone-aware mapping policies (MapZoneGreen, MapZoneEnergyPerWork),
// whose processor selection weighs each candidate's zone intensity over
// the task's tentative window; the other policies ignore it (nil is fine).
func PlanGreenZones(d *DAG, c *Cluster, policy MappingPolicy, zs *ZoneSet) (*Instance, error) {
	return greenheft.MapInstance(d, c, greenheft.Options{Policy: policy, Zones: zs})
}

// MapSolveOptions tunes MapAndSolve (candidate policies, scheduling
// variant).
type MapSolveOptions = greenheft.MapSolveOptions

// MapSolveResult is the winning plan of a mapping search plus the
// per-candidate audit trail.
type MapSolveResult = greenheft.MapSolveResult

// PolicyOutcome records one mapping candidate's fate inside MapAndSolve.
type PolicyOutcome = greenheft.PolicyOutcome

// MapAndSolve is the two-pass mapping search as a standalone pipeline:
// map the workflow under every candidate policy, run the zone-aware
// scheduler on each mapping against the same per-zone supply (whose
// common horizon is the deadline), and keep the lowest-carbon feasible
// plan. Since the fixed (EFT) mapping is among the candidates, the result
// is never worse than fixed-mapping scheduling on the same instance. For
// the cached request/response version use a Solver with
// Request.MapSearch.
func MapAndSolve(ctx context.Context, d *DAG, c *Cluster, zs *ZoneSet, opt MapSolveOptions) (*MapSolveResult, error) {
	return greenheft.MapAndSolve(ctx, d, c, zs, opt)
}

// TracePoint is one sample of a grid carbon-intensity trace.
type TracePoint = power.TracePoint

// ReadIntensityCSV parses "offset,intensity" carbon-intensity samples.
func ReadIntensityCSV(r io.Reader) ([]TracePoint, error) {
	return power.ReadIntensityCSV(r)
}

// ZonesFromIntensity converts one carbon-intensity trace per cluster zone
// into the per-zone supply over [0, T): cleaner grid → more green budget,
// each zone scaled into its own corridor. Traces may have different native
// horizons: they are aligned onto T (samples beyond T dropped, the last
// sample extended). A one-zone cluster gets its single trace scaled into
// the platform corridor, wrapped with SingleZone.
func ZonesFromIntensity(inst *Instance, traces [][]TracePoint, T int64) (*ZoneSet, error) {
	K := inst.NumZones()
	if len(traces) != K {
		return nil, fmt.Errorf("%w: %d intensity traces for a cluster with %d zones", ErrInvalidRequest, len(traces), K)
	}
	if K == 1 {
		gmin, gmax := power.PlatformBounds(inst.TotalIdlePower(), inst.Cluster.ComputeWork())
		prof, err := power.FromIntensity(traces[0], T, gmin, gmax)
		if err != nil {
			return nil, err
		}
		return power.SingleZone(prof), nil
	}
	zt := make([]power.ZoneTrace, K)
	for z := 0; z < K; z++ {
		gmin, gmax := power.PlatformBounds(inst.ZoneIdlePower(z), inst.Cluster.ZoneComputeWork(z))
		zt[z] = power.ZoneTrace{Name: fmt.Sprintf("z%d", z), Points: traces[z], Gmin: gmin, Gmax: gmax}
	}
	return power.ZonesFromIntensity(zt, T)
}

// ScheduleEntry is one node in the schedule export formats.
type ScheduleEntry = schedule.Entry

// ExportSchedule flattens a schedule into entries ordered by processor and
// start time.
func ExportSchedule(inst *Instance, s *Schedule) []ScheduleEntry {
	return schedule.Export(inst, s)
}

// WriteScheduleJSON / WriteScheduleCSV serialize a schedule.
func WriteScheduleJSON(w io.Writer, inst *Instance, s *Schedule) error {
	return schedule.WriteJSON(w, inst, s)
}

// WriteScheduleCSV writes the schedule as CSV rows.
func WriteScheduleCSV(w io.Writer, inst *Instance, s *Schedule) error {
	return schedule.WriteCSV(w, inst, s)
}

// ReadScheduleJSON parses a schedule written with WriteScheduleJSON.
func ReadScheduleJSON(r io.Reader, inst *Instance) (*Schedule, error) {
	return schedule.ReadJSON(r, inst)
}

// GanttOptions tunes the ASCII Gantt rendering.
type GanttOptions = schedule.GanttOptions

// Gantt renders the schedule as an ASCII chart (debugging/teaching aid).
func Gantt(inst *Instance, s *Schedule, horizon int64, opt GanttOptions) string {
	return schedule.Gantt(inst, s, horizon, opt)
}
