package wire

import (
	"repro/internal/obs"
	"repro/internal/schedule"
)

// SolveRequest is the body of POST /v1/solve: the workflow to schedule
// plus either an explicit power profile (whose horizon is the deadline) or
// the parameters of a generated one (scenario shape over the horizon
// deadline_factor × ASAP makespan). The server reads it with Decode,
// so a new field, here or in a type it holds, needs a case in decode.go;
// TestDecodeFastPathCovers fails until it has one.
type SolveRequest struct {
	// Workflow is the DAG to plan and schedule (required).
	Workflow *DAG `json:"workflow"`
	// Variant is a canonical registry name ("slack" … "pressWR-LS");
	// empty selects the server's default variant.
	Variant string `json:"variant,omitempty"`
	// Mapping selects the first-pass mapping of the workflow: a policy
	// name ("heft", "lowpower", "energy", "zonegreen", "zoneenergy") or
	// "map-search" for the two-pass search that keeps the lowest-carbon
	// feasible plan. Empty selects the server's default mapping (the
	// paper's fixed HEFT mapping unless configured otherwise); unknown
	// spellings are rejected with code "invalid_request".
	Mapping string `json:"mapping,omitempty"`

	// Zones, if set, is the per-grid-zone green power supply (one entry
	// per cluster zone, index-matched); its common horizon T is the
	// deadline. It overrides Profile.
	Zones []Zone `json:"zones,omitempty"`
	// Profile, if set (and Zones is not), is used cluster-wide as-is; its
	// horizon T is the deadline.
	Profile *Profile `json:"profile,omitempty"`
	// Scenario names the generated profile's shape, "S1".."S4"
	// (default S1). Ignored when Zones or Profile is set.
	Scenario string `json:"scenario,omitempty"`
	// ZoneScenarios names one generated shape per cluster zone (length
	// must equal the cluster's zone count); it overrides Scenario and is
	// ignored when Zones or Profile is set.
	ZoneScenarios []string `json:"zone_scenarios,omitempty"`
	// DeadlineFactor sets the deadline T = factor × D (ASAP makespan);
	// 0 means the paper's default tolerance of 2. A factor below 1 is
	// infeasible_deadline; one whose deadline does not fit an int64 is
	// invalid_request. Ignored when Profile is set.
	DeadlineFactor float64 `json:"deadline_factor,omitempty"`
	// Intervals is the generated profile's interval count (default 24, at
	// most power.MaxIntervals = 65536).
	Intervals int `json:"intervals,omitempty"`
	// Seed drives profile generation.
	Seed uint64 `json:"seed,omitempty"`
}

// SolveResponse is the body of a successful solve: the schedule, its
// costs, and the per-interval carbon breakdown. It renders itself
// (AppendJSON), so a new field, here or in a type it holds, needs a line
// in encode.go; TestSolveResponseJSONCoversEveryField fails until it has
// one.
type SolveResponse struct {
	Variant      string `json:"variant"`
	Mapping      string `json:"mapping"`       // mapping policy of the plan (the winner for map-search)
	ASAPMakespan int64  `json:"asap_makespan"` // D, the tightest feasible deadline
	Deadline     int64  `json:"deadline"`      // deadline actually used (profile horizon)
	Cost         int64  `json:"cost"`          // carbon cost of the schedule
	ASAPCost     int64  `json:"asap_cost"`     // carbon cost of the ASAP baseline
	PlanCacheHit bool   `json:"plan_cache_hit"`
	CacheHit     bool   `json:"cache_hit"` // whole response served from the solve cache
	// Coalesced reports that this response was shared from a concurrent
	// identical request's in-flight solve (singleflight): identical to the
	// leader's answer, but this request ran no scheduler of its own.
	Coalesced bool `json:"coalesced,omitempty"`

	// Schedule lists every node (tasks and communications) ordered by
	// (proc, start, node).
	Schedule []schedule.Entry `json:"schedule"`
	// Intervals is the per-interval carbon accounting of single-zone
	// solves; the brown fields sum to Cost. Empty for multi-zone solves,
	// whose accounting is per zone in Zones.
	Intervals []schedule.IntervalCost `json:"intervals,omitempty"`
	// Zones is the per-zone carbon accounting (one entry per zone, in
	// zone order); the zone Cost fields sum to Cost.
	Zones []schedule.ZoneCost `json:"zones,omitempty"`
	// Timings are the wall-clock durations of the solve's top-level
	// stages (plan, supply, cache, map, schedule) — the one legitimately
	// nondeterministic part of the response.
	Timings []StageTiming `json:"timings,omitempty"`
}

// StageTiming is one top-level solve stage's wall-clock duration, as the
// solver measures it.
type StageTiming = obs.StageTiming

// Error is the uniform error body: a stable machine-readable code from
// internal/scherr plus a human-readable message.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse wraps Error for non-2xx responses.
type ErrorResponse struct {
	Error *Error `json:"error"`
}

// BatchRequest is the body of POST /v1/solve/batch.
type BatchRequest struct {
	Requests []SolveRequest `json:"requests"`
}

// BatchItem is the in-band outcome of one batched request: exactly one of
// Response and Error is set. Index is the request's position in the batch
// (results are returned in request order; the index makes each row
// self-describing).
type BatchItem struct {
	Index    int            `json:"index"`
	Response *SolveResponse `json:"response,omitempty"`
	Error    *Error         `json:"error,omitempty"`
}

// BatchResponse is the body of a batch solve; it is returned with status
// 200 even when individual requests failed (their errors are in-band,
// like the sweep engine's JSONL error records).
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// VariantsResponse is the body of GET /v1/variants.
type VariantsResponse struct {
	Variants []string `json:"variants"`
	Default  string   `json:"default"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status string `json:"status"` // "ok" or "draining"
}
