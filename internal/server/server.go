// Package server exposes a session.Manager over HTTP/JSON: query
// submission, session listing/inspection/cancelation, aggregate metrics,
// and a Server-Sent Events stream of live progress estimates per session.
//
// API (all JSON):
//
//	POST   /query                  {"sql": ..., "deadline_ms": ..., "estimators": [...]}
//	GET    /sessions               list all sessions
//	GET    /sessions/{id}          one session, with latest progress
//	DELETE /sessions/{id}          cancel
//	GET    /sessions/{id}/progress SSE stream of progress events
//	GET    /metrics                aggregate counters
//	GET    /healthz                liveness
//
// SSE framing: each observation is sent as "event: progress" with the
// observation's sequence number as its "id:" line and a JSON payload; the
// stream ends with a single "event: done" carrying the terminal state and
// the final estimates, after which the server closes the connection.
// "event: heartbeat" frames (no id) are sent during idle gaps so proxies do
// not reap quiet streams, and a "retry:" hint opens the stream. A client
// reconnecting with a Last-Event-ID header is only sent observations it
// has not yet seen — and always observes the terminal done frame, even
// when it reconnects after the session ended.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"sqlprogress/internal/session"
)

// Server is the HTTP handler serving one Manager.
type Server struct {
	mgr     *session.Manager
	mux     *http.ServeMux
	started time.Time

	// KeepAlive is the idle period after which an SSE comment is sent
	// (default 1s).
	KeepAlive time.Duration
}

// New builds the handler over mgr.
func New(mgr *session.Manager) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux(), started: time.Now(), KeepAlive: time.Second}
	s.mux.HandleFunc("POST /query", s.handleSubmit)
	s.mux.HandleFunc("GET /sessions", s.handleList)
	s.mux.HandleFunc("GET /sessions/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /sessions/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /sessions/{id}/progress", s.handleProgress)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// submitRequest is POST /query's body.
type submitRequest struct {
	SQL string `json:"sql"`
	// DeadlineMs caps the query's execution time in milliseconds
	// (0 = server default, negative = explicitly none).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// Estimators overrides the estimator set evaluated per sample.
	Estimators []string `json:"estimators,omitempty"`
}

// maxSubmitBody caps POST /query's body, a statement and its options; a
// larger body is refused with 413 before anything is admitted.
const maxSubmitBody = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
		code := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.SQL == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing sql"))
		return
	}
	opt := session.SubmitOptions{Estimators: req.Estimators}
	if req.DeadlineMs != 0 {
		opt.Deadline = time.Duration(req.DeadlineMs) * time.Millisecond
	}
	sess, err := s.mgr.Submit(req.SQL, opt)
	switch {
	case errors.Is(err, session.ErrShed), errors.Is(err, session.ErrClosed):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, sess.Info())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	sessions := s.mgr.List()
	infos := make([]session.Info, len(sessions))
	for i, sess := range sessions {
		infos[i] = sess.Info()
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": infos})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	sess, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, sess.Info())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	sess, err := s.mgr.Cancel(r.PathValue("id"), "client cancel")
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, sess.Info())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.mgr.Metrics()
	writeJSON(w, http.StatusOK, struct {
		session.Metrics
		UptimeMs int64 `json:"uptime_ms"`
	}{m, time.Since(s.started).Milliseconds()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
