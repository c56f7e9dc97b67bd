package server

import (
	"io"
	"net/http"

	"repro/internal/scherr"
	"repro/internal/wire"
)

// The fleet cache-exchange endpoints (wire.CachePathPrefix): peers on
// the consistent-hash ring read and write this instance's tier-local
// store. Both handlers are deliberately thin — validate the key, touch
// the MemoryTier, answer — because they sit on every cross-process cache
// miss of the whole fleet; the record bytes stay opaque here (the
// consuming solver re-validates them structurally before serving).

// handlePeerCacheGet serves GET /internal/v1/cache/{key}: the record
// bytes with 200, or 404 when this instance's store has no record (the
// requesting peer treats both any other outcome and a timeout as a
// miss).
func (s *Server) handlePeerCacheGet(w http.ResponseWriter, r *http.Request) {
	tier := s.solver.PeerTier()
	if tier == nil {
		s.writeError(w, &wire.Error{Code: scherr.CodeUnsupported, Message: "no peer cache tier configured"})
		return
	}
	key := r.PathValue("key")
	if !wire.ValidCacheKey(key) {
		s.writeError(w, &wire.Error{Code: scherr.CodeInvalidRequest, Message: "malformed cache key"})
		return
	}
	data, ok := tier.Local().Get(r.Context(), key)
	if !ok {
		s.writeError(w, &wire.Error{Code: scherr.CodeNotFound, Message: "no record for key"})
		return
	}
	w.Header().Set("Content-Type", wire.CacheContentType)
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// handlePeerCachePut serves PUT /internal/v1/cache/{key}: store the body
// as the record for key and answer 204. The sender is fire-and-forget,
// so the status only feeds its breaker.
func (s *Server) handlePeerCachePut(w http.ResponseWriter, r *http.Request) {
	tier := s.solver.PeerTier()
	if tier == nil {
		s.writeError(w, &wire.Error{Code: scherr.CodeUnsupported, Message: "no peer cache tier configured"})
		return
	}
	key := r.PathValue("key")
	if !wire.ValidCacheKey(key) {
		s.writeError(w, &wire.Error{Code: scherr.CodeInvalidRequest, Message: "malformed cache key"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeError(w, &wire.Error{Code: scherr.CodeInvalidRequest, Message: "reading record body: " + err.Error()})
		return
	}
	if len(body) == 0 {
		s.writeError(w, &wire.Error{Code: scherr.CodeInvalidRequest, Message: "empty record body"})
		return
	}
	tier.Local().Put(r.Context(), key, body)
	w.WriteHeader(http.StatusNoContent)
}
