package server

import (
	"fmt"
	"net/http"

	"repro/internal/scherr"
	"repro/internal/solve"
	"repro/internal/tenancy"
	"repro/internal/wire"
)

// manager returns the tenancy manager, or writes the 501 explaining that
// the server was started without one.
func (s *Server) manager(w http.ResponseWriter) (*tenancy.Manager, bool) {
	if s.cfg.Manager == nil {
		s.writeError(w, &wire.Error{
			Code:    scherr.CodeUnsupported,
			Message: "online scheduling disabled: schedd was started without a supply forecast (see -supply-scenario)",
		})
		return nil, false
	}
	return s.cfg.Manager, true
}

// workflowBody flattens a tenancy status for the wire.
func workflowBody(st *tenancy.WorkflowStatus) wire.WorkflowResponse {
	out := wire.WorkflowResponse{
		ID:           st.ID,
		State:        string(st.State),
		SubmittedAt:  st.SubmittedAt,
		Start:        st.Start,
		Finish:       st.Finish,
		Deadline:     st.Deadline,
		Cost:         st.Cost,
		AdmittedCost: st.AdmittedCost,
		Rebalances:   st.Rebalances,
		Variant:      st.Variant,
		Mapping:      st.Mapping,
	}
	for _, c := range st.Claims {
		out.Claims = append(out.Claims, wire.WorkflowClaim{Proc: c.Proc, Start: c.Start, End: c.End, Work: c.Work})
	}
	return out
}

func (s *Server) handleWorkflowSubmit(w http.ResponseWriter, r *http.Request) {
	m, ok := s.manager(w)
	if !ok {
		return
	}
	var wreq wire.SubmitWorkflowRequest
	if !s.decode(w, r, &wreq) {
		return
	}
	if wreq.Workflow == nil {
		s.writeError(w, &wire.Error{Code: scherr.CodeInvalidRequest, Message: "missing workflow"})
		return
	}
	wf, err := wreq.Workflow.ToDAG()
	if err != nil {
		s.writeError(w, &wire.Error{Code: scherr.CodeInvalidRequest, Message: err.Error()})
		return
	}
	mapping := wreq.Mapping
	if mapping == "" {
		mapping = s.cfg.DefaultMapping
	}
	policy, mapSearch, err := solve.ParseMapping(mapping)
	if err != nil {
		s.writeError(w, &wire.Error{Code: scherr.CodeInvalidRequest, Message: err.Error()})
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	st, err := m.Submit(ctx, tenancy.SubmitRequest{
		Workflow:       wf,
		Variant:        wreq.Variant,
		MappingPolicy:  policy,
		MapSearch:      mapSearch,
		DeadlineFactor: wreq.DeadlineFactor,
	})
	if err != nil {
		s.writeError(w, errorBody(err))
		return
	}
	w.Header().Set("Location", "/v1/workflows/"+st.ID)
	s.writeJSON(w, http.StatusCreated, workflowBody(st))
}

func (s *Server) handleWorkflowList(w http.ResponseWriter, r *http.Request) {
	m, ok := s.manager(w)
	if !ok {
		return
	}
	list := m.List()
	out := wire.WorkflowListResponse{Workflows: make([]wire.WorkflowResponse, 0, len(list))}
	for _, st := range list {
		out.Workflows = append(out.Workflows, workflowBody(st))
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleWorkflowGet(w http.ResponseWriter, r *http.Request) {
	m, ok := s.manager(w)
	if !ok {
		return
	}
	st, err := m.Get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, errorBody(err))
		return
	}
	s.writeJSON(w, http.StatusOK, workflowBody(st))
}

func (s *Server) handleWorkflowCancel(w http.ResponseWriter, r *http.Request) {
	m, ok := s.manager(w)
	if !ok {
		return
	}
	st, err := m.Cancel(r.PathValue("id"))
	if err != nil {
		s.writeError(w, errorBody(err))
		return
	}
	s.writeJSON(w, http.StatusOK, workflowBody(st))
}

func (s *Server) handleZones(w http.ResponseWriter, r *http.Request) {
	m, ok := s.manager(w)
	if !ok {
		return
	}
	supply := m.Supply()
	resp := wire.ZonesResponse{
		Names:   make([]string, supply.NumZones()),
		Horizon: supply.T(),
		Digest:  fmt.Sprintf("%016x", supply.Digest()),
	}
	for z := 0; z < supply.NumZones(); z++ {
		resp.Names[z] = supply.Zone(z).Name
	}
	s.writeJSON(w, http.StatusOK, resp)
}
