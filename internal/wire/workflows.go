package wire

// SubmitWorkflowRequest is the body of POST /v1/workflows: a workflow
// submitted to the multi-tenant online scheduler. Unlike /v1/solve, the
// supply is not part of the request — the server schedules against its
// configured zone forecast minus the reservations of earlier tenants.
type SubmitWorkflowRequest struct {
	// Workflow is the DAG to admit (required).
	Workflow *DAG `json:"workflow"`
	// Variant is a canonical registry name; empty selects the server's
	// default variant.
	Variant string `json:"variant,omitempty"`
	// Mapping is a policy name or "map-search"; empty selects the server's
	// default mapping.
	Mapping string `json:"mapping,omitempty"`
	// DeadlineFactor sets the absolute deadline now + factor × D (ASAP
	// makespan); 0 means the paper's default tolerance of 2. A workflow
	// that cannot meet it on residual capacity is rejected with code
	// "admission_rejected" (HTTP 409).
	DeadlineFactor float64 `json:"deadline_factor,omitempty"`
}

// WorkflowClaim is one committed reservation of an admitted workflow.
type WorkflowClaim struct {
	Proc  int   `json:"proc"`
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	Work  int64 `json:"work"`
}

// WorkflowResponse is the status of one submitted workflow, returned by
// POST /v1/workflows, GET /v1/workflows/{id}, and DELETE /v1/workflows/{id}.
type WorkflowResponse struct {
	ID    string `json:"id"`
	State string `json:"state"` // "admitted", "running", "completed", "canceled"
	// Times are absolute model time (the server's clock maps wall time
	// onto schedule units).
	SubmittedAt int64 `json:"submitted_at"`
	Start       int64 `json:"start"`
	Finish      int64 `json:"finish"`
	Deadline    int64 `json:"deadline"`
	// Cost is the carbon cost of the current placement on the residual
	// view it was committed against; AdmittedCost is the cost at admission
	// (rolling-horizon passes only ever re-commit cheaper placements).
	Cost         int64           `json:"cost"`
	AdmittedCost int64           `json:"admitted_cost"`
	Rebalances   int             `json:"rebalances"`
	Variant      string          `json:"variant"`
	Mapping      string          `json:"mapping"`
	Claims       []WorkflowClaim `json:"claims,omitempty"`
}

// WorkflowListResponse is the body of GET /v1/workflows.
type WorkflowListResponse struct {
	Workflows []WorkflowResponse `json:"workflows"`
}

// ZonesResponse is the body of GET /v1/zones: the server's configured
// per-zone green supply forecast, by identity rather than by value.
type ZonesResponse struct {
	// Names lists the zone names in cluster zone order.
	Names []string `json:"names"`
	// Horizon is the forecast's period T in model time units (the supply
	// repeats beyond it).
	Horizon int64 `json:"horizon"`
	// Digest fingerprints the whole zone set (names and profiles), as
	// 16 hex digits; two servers with equal digests schedule against the
	// same supply.
	Digest string `json:"digest"`
}
