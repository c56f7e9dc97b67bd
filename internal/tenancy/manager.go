package tenancy

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/ceg"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/greenheft"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/scherr"
	"repro/internal/solve"
)

// State is the lifecycle phase of a submitted workflow.
type State string

const (
	// StateAdmitted: committed to the ledger, first reservation not yet
	// started. Only admitted workflows are moved by the rolling horizon.
	StateAdmitted State = "admitted"
	// StateRunning: at least one reservation has started.
	StateRunning State = "running"
	// StateCompleted: every reservation has finished.
	StateCompleted State = "completed"
	// StateCanceled: canceled by the client; unstarted reservations were
	// released.
	StateCanceled State = "canceled"
)

// SubmitRequest describes one workflow submission. The zero values of the
// tuning fields select the manager's defaults.
type SubmitRequest struct {
	Workflow *dag.DAG
	// Variant is a canonical registry name; empty selects the solver
	// default (pressWR-LS).
	Variant string
	// MappingPolicy selects the first-pass mapping (zero = fixed HEFT).
	MappingPolicy greenheft.Policy
	// MapSearch runs the two-pass mapping search instead.
	MapSearch bool
	// DeadlineFactor sets the deadline now + factor·D (D = the workflow's
	// ASAP makespan); 0 means the paper's default tolerance of 2.
	DeadlineFactor float64
}

// WorkflowStatus is a point-in-time snapshot of one submitted workflow.
type WorkflowStatus struct {
	ID           string
	State        State
	SubmittedAt  int64 // absolute model time of admission
	Start        int64 // earliest committed reservation start
	Finish       int64 // latest committed reservation end
	Deadline     int64 // absolute deadline the placement must meet
	Cost         int64 // carbon cost of the current placement on its admission/rebalance view
	AdmittedCost int64 // carbon cost at admission time
	Rebalances   int   // how many rolling-horizon passes moved it
	Variant      string
	Mapping      string
	Claims       []Claim // committed reservations, sorted by (proc, start)
}

// Event is one entry of the append-only placement history. For a fixed
// arrival trace, clock, and seed the history is byte-identical across
// runs — the determinism contract of the rolling horizon.
type Event struct {
	Seq       int64  `json:"seq"`
	Time      int64  `json:"time"`
	Kind      string `json:"kind"` // "admit", "reject", "cancel", "rebalance"
	ID        string `json:"id,omitempty"`
	FP        uint64 `json:"fp,omitempty"`        // workflow fingerprint
	Cost      int64  `json:"cost,omitempty"`      // placement cost after the event
	PrevCost  int64  `json:"prev_cost,omitempty"` // placement cost before (rebalance only)
	Offset    int64  `json:"offset,omitempty"`    // commit offset applied by admission
	Placement uint64 `json:"placement,omitempty"` // digest of the committed claims
	Improved  bool   `json:"improved,omitempty"`  // rebalance adopted a cheaper placement
}

// Gauges is a snapshot of the manager's counters for /metrics.
type Gauges struct {
	Admitted  int64 // current workflows in StateAdmitted
	Running   int64
	Completed int64
	Canceled  int64

	SubmittedTotal      int64 // accepted submissions, lifetime
	RejectedTotal       int64 // admission rejections, lifetime
	CanceledTotal       int64
	RebalancePasses     int64 // completed Rebalance calls
	RebalanceMoves      int64 // placements improved and re-committed
	LedgerClaims        int64 // live reservations (ending after the compaction horizon)
	LedgerReservedUnits int64 // Σ proc-time units committed

	// Per-tenant carbon accounting: the admitted-vs-current cost view.
	// PlacementCostUnits − AdmittedCostUnits is never positive (a
	// rebalance only ever adopts strictly cheaper placements), and its
	// magnitude is the realized regret recovered since admission.
	AdmittedCostUnits  int64 // Σ admission-time placement cost, non-canceled workflows
	PlacementCostUnits int64 // Σ current placement cost, non-canceled workflows
	SavedUnits         int64 // Σ carbon saved by adopted rebalance moves, lifetime
}

// RebalanceReport summarizes one rolling-horizon pass.
type RebalanceReport struct {
	Time       int64 // model time of the pass
	Considered int   // admitted-but-unstarted workflows examined
	Moved      int   // placements improved and re-committed
	Saved      int64 // total carbon saved by the moves (>= 0)
}

// Config assembles a Manager. Solver, Supply, and Clock are required; the
// supply's zone count must match the solver's cluster.
type Config struct {
	Solver *solve.Solver
	// Supply is the per-zone green power forecast, treated as periodic
	// beyond its horizon.
	Supply *power.ZoneSet
	Clock  Clock
}

// record is the manager's internal bookkeeping for one admitted workflow.
type record struct {
	id         string
	wf         *dag.DAG
	inst       *ceg.Instance
	sched      *schedule.Schedule // relative to base
	claims     []Claim            // committed, sorted by (proc, start); finished ones stay
	base       int64              // absolute time of the schedule's t=0
	start      int64              // earliest claim start (absolute)
	finish     int64              // latest claim end (absolute)
	deadline   int64              // absolute
	submitted  int64
	variant    string
	mapping    string
	req        SubmitRequest
	cost       int64
	admitCost  int64
	rebalances int
	canceled   bool
}

// Manager is the multi-tenant scheduler: admission control over the
// ledger plus the rolling-horizon re-solve. All methods are safe for
// concurrent use. State transitions (submit, cancel, rebalance) are
// serialized by one mutex: admission must see a stable residual view
// between solving and committing, and a rebalance that releases a
// placement must be able to restore it unconditionally when the re-solve
// does not improve it.
type Manager struct {
	solver *solve.Solver
	supply *power.ZoneSet
	clock  Clock
	cfg    Config
	ledger *Ledger

	mu      sync.Mutex
	seq     int64
	recs    []*record // admission order
	byID    map[string]*record
	history []Event

	rejected   int64
	canceledN  int64
	rebalPass  int64
	rebalMoves int64
	savedUnits int64
}

// NewManager validates the configuration and returns an empty manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Solver == nil {
		return nil, fmt.Errorf("tenancy: config needs a solver")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("tenancy: config needs a clock")
	}
	if cfg.Supply == nil {
		return nil, fmt.Errorf("tenancy: config needs a supply forecast")
	}
	if err := cfg.Supply.Validate(); err != nil {
		return nil, fmt.Errorf("tenancy: invalid supply: %w", err)
	}
	if got, want := cfg.Supply.NumZones(), cfg.Solver.Cluster().NumZones(); got != want {
		return nil, fmt.Errorf("%w: supply has %d zones for a cluster with %d", scherr.ErrInvalidRequest, got, want)
	}
	return &Manager{
		solver: cfg.Solver,
		supply: cfg.Supply,
		clock:  cfg.Clock,
		cfg:    cfg,
		ledger: NewLedger(),
		byID:   make(map[string]*record),
	}, nil
}

// Ledger exposes the reservation ledger (read-mostly: gauges,
// utilization accounting, audits). Mutations go through the manager.
func (m *Manager) Ledger() *Ledger { return m.ledger }

// Supply returns the configured per-zone forecast.
func (m *Manager) Supply() *power.ZoneSet { return m.supply }

// Clock returns the manager's clock.
func (m *Manager) Clock() Clock { return m.clock }

// claimsOf derives the ledger claims of a placement: one reservation per
// positive-duration node, at absolute time base + start.
func claimsOf(inst *ceg.Instance, s *schedule.Schedule, base int64) []Claim {
	claims := make([]Claim, 0, inst.N())
	for v := 0; v < inst.N(); v++ {
		if inst.Dur[v] <= 0 {
			continue
		}
		_, work := inst.ProcPower(v)
		claims = append(claims, Claim{
			Proc:  inst.Proc[v],
			Start: base + s.Start[v],
			End:   base + s.Start[v] + inst.Dur[v],
			Work:  work,
		})
	}
	return claims
}

// placementDigest fingerprints a claim set for the history.
func placementDigest(claims []Claim) uint64 {
	h := dag.NewHash()
	h.U64(uint64(len(claims)))
	for _, c := range claims {
		h.U64(uint64(c.Proc))
		h.U64(uint64(c.Start))
		h.U64(uint64(c.End))
		h.U64(uint64(c.Work))
	}
	return h.Sum64()
}

// byProcStart returns a copy of claims sorted by (proc, start), the order
// a status lists them in.
func byProcStart(claims []Claim) []Claim {
	out := slices.Clone(claims)
	slices.SortFunc(out, func(a, b Claim) int {
		return cmp.Or(cmp.Compare(a.Proc, b.Proc), cmp.Compare(a.Start, b.Start))
	})
	return out
}

func shifted(s *schedule.Schedule, delta int64) *schedule.Schedule {
	if delta == 0 {
		return s
	}
	out := s.Clone()
	for v := range out.Start {
		out.Start[v] += delta
	}
	return out
}

// placement is a solve laid onto the ledger: its claims and schedule,
// shifted by the offset FindOffset chose, and the schedule's cost on the
// residual supply it was solved against.
type placement struct {
	claims []Claim
	sched  *schedule.Schedule
	delta  int64
	cost   int64
}

// place finds the earliest offset at which res's claims, laid from now,
// fit the ledger before deadline, shifts the claims and the schedule by it
// and re-prices a shifted schedule on residual. ok is false when no offset
// fits. traced opens the offset-search span under ctx's: Submit's
// admission traces carry it, rebalance passes stay without. Call with
// m.mu held.
func (m *Manager) place(ctx context.Context, res *solve.Response, residual *power.ZoneSet, now, deadline int64, traced bool) (p placement, ok bool, err error) {
	p.claims = claimsOf(res.Instance, res.Schedule, now)
	var osp *obs.Span
	if traced {
		_, osp = obs.Start(ctx, "offset-search")
	}
	p.delta, ok, err = m.ledger.FindOffset(p.claims, deadline)
	if osp != nil {
		osp.SetAttr("offset", p.delta)
		osp.SetAttr("found", ok)
		osp.End()
	}
	if err != nil || !ok {
		return p, false, err
	}
	p.sched, p.cost = res.Schedule, res.Cost
	if p.delta != 0 {
		p.sched = shifted(res.Schedule, p.delta)
		for i := range p.claims {
			p.claims[i].Start += p.delta
			p.claims[i].End += p.delta
		}
		p.cost = schedule.CarbonCost(res.Instance, p.sched, residual)
	}
	return p, true, nil
}

func claimBounds(claims []Claim, base int64) (start, finish int64) {
	start, finish = base, base
	for i, c := range claims {
		if i == 0 || c.Start < start {
			start = c.Start
		}
		if i == 0 || c.End > finish {
			finish = c.End
		}
	}
	return start, finish
}

func (m *Manager) appendEvent(e Event) {
	e.Seq = int64(len(m.history))
	m.history = append(m.history, e)
}

// Submit runs admission control for one workflow: solve it against the
// residual supply over [now, now+factor·D), find the earliest
// conflict-free offset for the resulting claims, and commit them
// atomically. A workflow whose deadline cannot be met on residual
// capacity is rejected with an error satisfying both
// errors.Is(err, scherr.ErrAdmissionRejected) (stable code
// "admission_rejected") and errors.Is(err, scherr.ErrInfeasibleDeadline).
//
// Under an observability-carrying context (internal/obs) the admission
// is the obs.StageAdmission stage (the solve and offset-search spans
// record under its span) and counts into schedd_admissions_total{outcome}.
func (m *Manager) Submit(ctx context.Context, req SubmitRequest) (*WorkflowStatus, error) {
	ctx, stage := obs.BeginStage(ctx, obs.StageAdmission)
	st, err := m.submit(ctx, req)
	outcome := "admitted"
	switch {
	case errors.Is(err, scherr.ErrAdmissionRejected):
		outcome = "rejected"
	case err != nil:
		outcome = "error"
	}
	if meter := obs.MeterFrom(ctx); meter != nil {
		meter.Counter("schedd_admissions_total", "workflow admission decisions by outcome",
			"outcome").With(outcome).Inc()
	}
	if sp := stage.Span; sp != nil {
		sp.SetAttr("outcome", outcome)
		if st != nil {
			sp.SetAttr("id", st.ID)
			sp.SetAttr("cost", st.Cost)
		}
	}
	stage.End(nil)
	return st, err
}

func (m *Manager) submit(ctx context.Context, req SubmitRequest) (*WorkflowStatus, error) {
	if req.Workflow == nil {
		return nil, fmt.Errorf("%w: missing workflow", scherr.ErrInvalidRequest)
	}
	if f := req.DeadlineFactor; f != 0 && f < 1 {
		return nil, fmt.Errorf("%w: deadline factor %v < 1", scherr.ErrInvalidRequest, f)
	}

	// The ASAP makespan anchors the deadline; the plan behind it is
	// memoized by the solver, so the expensive prefix of repeated
	// submissions of one workflow shape is shared.
	inst, _, err := m.solver.Plan(ctx, req.Workflow)
	if err != nil {
		return nil, err
	}
	T, err := solve.DeadlineHorizon(core.ASAPMakespan(inst), req.DeadlineFactor)
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clock.Now()
	if err := m.ledger.Compact(now); err != nil {
		return nil, err
	}
	if T > math.MaxInt64-now {
		return nil, fmt.Errorf("%w: deadline %d units after %d is out of range", scherr.ErrInvalidRequest, T, now)
	}
	deadline := now + T

	residual, err := m.ledger.Residual(m.supply, m.solver.Cluster().ZoneOf, now, T)
	if err != nil {
		return nil, err
	}
	res, err := m.solver.Solve(ctx, solve.Request{
		Workflow:      req.Workflow,
		Variant:       req.Variant,
		MappingPolicy: req.MappingPolicy,
		MapSearch:     req.MapSearch,
		Zones:         residual,
	})
	if err != nil {
		if errors.Is(err, scherr.ErrInfeasibleDeadline) {
			m.rejected++
			m.appendEvent(Event{Time: now, Kind: "reject", FP: req.Workflow.Fingerprint()})
			return nil, &scherr.AdmissionError{Deadline: deadline, Reason: err}
		}
		return nil, err
	}

	pl, ok, err := m.place(ctx, res, residual, now, deadline, true)
	if err != nil {
		return nil, err
	}
	if !ok {
		m.rejected++
		m.appendEvent(Event{Time: now, Kind: "reject", FP: req.Workflow.Fingerprint()})
		return nil, &scherr.AdmissionError{Deadline: deadline}
	}

	m.seq++
	id := fmt.Sprintf("wf-%06d", m.seq)
	if err := m.ledger.Commit(id, pl.claims); err != nil {
		// FindOffset ran under the same manager lock, so this is a
		// programming error, not a race.
		return nil, fmt.Errorf("tenancy: commit after offset search failed: %w", err)
	}
	start, finish := claimBounds(pl.claims, now)
	rec := &record{
		id: id, wf: req.Workflow, inst: res.Instance, sched: pl.sched,
		claims: byProcStart(pl.claims), base: now, start: start, finish: finish, deadline: deadline,
		submitted: now, variant: res.Variant, mapping: res.Mapping,
		req: req, cost: pl.cost, admitCost: pl.cost,
	}
	m.recs = append(m.recs, rec)
	m.byID[id] = rec
	m.appendEvent(Event{
		Time: now, Kind: "admit", ID: id, FP: req.Workflow.Fingerprint(),
		Cost: pl.cost, Offset: pl.delta, Placement: placementDigest(pl.claims),
	})
	return m.statusLocked(rec, now), nil
}

// stateLocked derives the lifecycle state of rec at time now.
func (rec *record) state(now int64) State {
	switch {
	case rec.canceled:
		return StateCanceled
	case now >= rec.finish:
		return StateCompleted
	case now >= rec.start:
		return StateRunning
	default:
		return StateAdmitted
	}
}

func (m *Manager) statusLocked(rec *record, now int64) *WorkflowStatus {
	return &WorkflowStatus{
		ID:           rec.id,
		State:        rec.state(now),
		SubmittedAt:  rec.submitted,
		Start:        rec.start,
		Finish:       rec.finish,
		Deadline:     rec.deadline,
		Cost:         rec.cost,
		AdmittedCost: rec.admitCost,
		Rebalances:   rec.rebalances,
		Variant:      rec.variant,
		Mapping:      rec.mapping,
		Claims:       append([]Claim(nil), rec.claims...),
	}
}

// Get returns the status of one workflow.
func (m *Manager) Get(id string) (*WorkflowStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.byID[id]
	if !ok {
		return nil, &scherr.NotFoundError{Kind: "workflow", ID: id}
	}
	return m.statusLocked(rec, m.clock.Now()), nil
}

// List returns every workflow's status in admission order.
func (m *Manager) List() []*WorkflowStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clock.Now()
	out := make([]*WorkflowStatus, len(m.recs))
	for i, rec := range m.recs {
		out[i] = m.statusLocked(rec, now)
	}
	return out
}

// Cancel releases a workflow's share of the future: reservations that
// have not started are dropped, a running reservation is truncated at
// now, and finished work stays booked. Canceling a completed or already
// canceled workflow is a no-op returning the current status.
func (m *Manager) Cancel(id string) (*WorkflowStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.byID[id]
	if !ok {
		return nil, &scherr.NotFoundError{Kind: "workflow", ID: id}
	}
	now := m.clock.Now()
	if err := m.ledger.Compact(now); err != nil {
		return nil, err
	}
	if rec.canceled || now >= rec.finish {
		return m.statusLocked(rec, now), nil
	}
	m.ledger.ReleaseFrom(id, rec.claims, now)
	kept := rec.claims[:0]
	for _, c := range rec.claims {
		if c.End = cut(c.Start, c.End, now); c.End > c.Start {
			kept = append(kept, c)
		}
	}
	rec.claims = kept
	rec.canceled = true
	if rec.finish > now {
		rec.finish = now
	}
	if rec.start > now {
		rec.start = now
	}
	m.canceledN++
	m.appendEvent(Event{Time: now, Kind: "cancel", ID: id, FP: rec.wf.Fingerprint()})
	return m.statusLocked(rec, now), nil
}

// Rebalance is one rolling-horizon pass: every admitted-but-unstarted
// workflow is tentatively released, re-solved against the residual supply
// of the current moment, and re-committed only when the fresh placement
// is strictly cheaper than its current one evaluated on the same view —
// so a pass never increases the carbon cost of an already-admitted
// workflow, and a placement is never lost (the old claims are restored
// under the same lock when the re-solve does not improve on them).
//
// Like Submit, a pass is a stage (obs.StageRebalance) when the context
// carries observability, and accumulates schedd_rebalance_saved_units_total.
func (m *Manager) Rebalance(ctx context.Context) (RebalanceReport, error) {
	ctx, stage := obs.BeginStage(ctx, obs.StageRebalance)
	rep, err := m.rebalance(ctx)
	if meter := obs.MeterFrom(ctx); meter != nil {
		meter.Counter("schedd_rebalance_saved_units_total",
			"carbon units saved by adopted rebalance moves").With().Add(rep.Saved)
	}
	if sp := stage.Span; sp != nil {
		sp.SetAttr("considered", rep.Considered)
		sp.SetAttr("moved", rep.Moved)
		sp.SetAttr("saved", rep.Saved)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		if rep.Considered == 0 && err == nil {
			// An idle pass: a fast -rebalance-every loop would flood the
			// trace ring with these and evict real request traces.
			sp.Discard()
		}
	}
	stage.End(nil)
	return rep, err
}

func (m *Manager) rebalance(ctx context.Context) (RebalanceReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clock.Now()
	rep := RebalanceReport{Time: now}
	if err := m.ledger.Compact(now); err != nil {
		return rep, err
	}
	for _, rec := range m.recs {
		if rec.canceled || rec.start <= now || rec.deadline <= now {
			continue
		}
		if err := ctx.Err(); err != nil {
			return rep, scherr.Canceled(err)
		}
		rep.Considered++
		T := rec.deadline - now
		oldClaims := rec.claims
		m.ledger.ReleaseFrom(rec.id, oldClaims, 0)

		restore := func() error {
			if err := m.ledger.Commit(rec.id, oldClaims); err != nil {
				return fmt.Errorf("tenancy: restoring %s after rebalance: %w", rec.id, err)
			}
			return nil
		}

		residual, err := m.ledger.Residual(m.supply, m.solver.Cluster().ZoneOf, now, T)
		if err != nil {
			if rerr := restore(); rerr != nil {
				return rep, rerr
			}
			return rep, err
		}
		// The incumbent placement, re-priced on today's residual view: the
		// yardstick the fresh solve has to beat.
		oldRel := shifted(rec.sched, rec.base-now)
		oldCost := schedule.CarbonCost(rec.inst, oldRel, residual)

		res, err := m.solver.Solve(ctx, solve.Request{
			Workflow:      rec.wf,
			Variant:       rec.req.Variant,
			MappingPolicy: rec.req.MappingPolicy,
			MapSearch:     rec.req.MapSearch,
			Zones:         residual,
		})
		adopt := false
		var pl placement
		if err == nil {
			// The claims start at now, the horizon: the search cannot fail.
			var ok bool
			pl, ok, _ = m.place(ctx, res, residual, now, rec.deadline, false)
			adopt = ok && pl.cost < oldCost
		} else if errors.Is(err, scherr.ErrCanceled) {
			if rerr := restore(); rerr != nil {
				return rep, rerr
			}
			return rep, err
		}

		if !adopt {
			if rerr := restore(); rerr != nil {
				return rep, rerr
			}
			rec.cost = oldCost
			continue
		}
		if cerr := m.ledger.Commit(rec.id, pl.claims); cerr != nil {
			return rep, fmt.Errorf("tenancy: committing rebalanced %s: %w", rec.id, cerr)
		}
		rec.inst = res.Instance
		rec.sched = pl.sched
		rec.claims = byProcStart(pl.claims)
		rec.base = now
		rec.start, rec.finish = claimBounds(pl.claims, now)
		rec.mapping = res.Mapping
		saved := oldCost - pl.cost
		rec.cost = pl.cost
		rec.rebalances++
		rep.Moved++
		rep.Saved += saved
		m.rebalMoves++
		m.savedUnits += saved
		m.appendEvent(Event{
			Time: now, Kind: "rebalance", ID: rec.id, FP: rec.wf.Fingerprint(),
			Cost: pl.cost, PrevCost: oldCost, Placement: placementDigest(pl.claims), Improved: true,
		})
	}
	m.rebalPass++
	return rep, nil
}

// History returns a copy of the append-only placement history.
func (m *Manager) History() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.history...)
}

// Gauges returns a snapshot of the manager's counters.
func (m *Manager) Gauges() Gauges {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clock.Now()
	g := Gauges{
		SubmittedTotal:      int64(len(m.recs)),
		RejectedTotal:       m.rejected,
		CanceledTotal:       m.canceledN,
		RebalancePasses:     m.rebalPass,
		RebalanceMoves:      m.rebalMoves,
		LedgerClaims:        m.ledger.NumClaims(),
		LedgerReservedUnits: m.ledger.ReservedUnits(),
		SavedUnits:          m.savedUnits,
	}
	for _, rec := range m.recs {
		if !rec.canceled {
			g.AdmittedCostUnits += rec.admitCost
			g.PlacementCostUnits += rec.cost
		}
		switch rec.state(now) {
		case StateAdmitted:
			g.Admitted++
		case StateRunning:
			g.Running++
		case StateCompleted:
			g.Completed++
		case StateCanceled:
			g.Canceled++
		}
	}
	return g
}
