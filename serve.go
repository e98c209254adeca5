package sqlprogress

import (
	"context"
	"net"
	"net/http"
	"time"

	"sqlprogress/internal/server"
	"sqlprogress/internal/session"
)

// ServeOptions configures the query-session service a DB can expose.
type ServeOptions struct {
	// MaxConcurrent bounds simultaneously-running queries (default 8).
	MaxConcurrent int
	// MaxQueue bounds queries waiting for a run slot; submissions beyond it
	// are shed with HTTP 503 (default 64).
	MaxQueue int
	// SampleInterval is each session's wall-clock progress sampling period
	// (default 2ms): the run samples itself at its first credit this long
	// after the previous sample.
	SampleInterval time.Duration
	// DefaultDeadline caps each query's execution time unless the request
	// overrides it (0 = none).
	DefaultDeadline time.Duration
	// Estimators are evaluated at every sample (default Dne, Pmax, Safe).
	Estimators []EstimatorKind
	// KeepRows caps result rows retained per finished session (0 = 50,
	// negative = unlimited).
	KeepRows int
	// StallAfter flags a running query that has published no progress event
	// for this long as stalled, and counts each such gap in the metrics'
	// stall_events once it ends (0 = off). A run publishes at its first
	// credit every SampleInterval, so set it to several SampleIntervals.
	StallAfter time.Duration
}

// sessionConfig is the session manager's configuration for serving db. The
// buffer pool comes from db: a spilled database's progress events carry its
// counters.
func (o ServeOptions) sessionConfig(db *DB) session.Config {
	cfg := session.Config{
		MaxConcurrent:   o.MaxConcurrent,
		MaxQueue:        o.MaxQueue,
		SampleInterval:  o.SampleInterval,
		DefaultDeadline: o.DefaultDeadline,
		KeepRows:        o.KeepRows,
		StallAfter:      o.StallAfter,
		Pool:            db.pool,
	}
	for _, k := range o.Estimators {
		cfg.Estimators = append(cfg.Estimators, string(k))
	}
	return cfg
}

// SessionServer is a database's query-session service: an http.Handler
// speaking the progressd API (POST /query, GET /sessions, SSE progress
// streams, /metrics) over a session manager that admits queries under a
// concurrency limit and samples each one as it runs.
type SessionServer struct {
	mgr *session.Manager
	h   http.Handler
}

// NewSessionServer builds the session service over db. Close it when done:
// Close stops admission, cancels everything in flight, and joins every
// session's run goroutine.
func (db *DB) NewSessionServer(opts ServeOptions) *SessionServer {
	mgr := session.New(db.cat, opts.sessionConfig(db))
	return &SessionServer{mgr: mgr, h: server.New(mgr)}
}

// ServeHTTP implements http.Handler.
func (s *SessionServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.ServeHTTP(w, r)
}

// Close shuts the session manager down gracefully (idempotent).
func (s *SessionServer) Close() error { return s.mgr.Close() }

// Serve runs the session service on ln until ctx is canceled, then shuts
// down gracefully: in-flight queries are canceled, which ends their progress
// streams with the final event, the listener closes, open connections drain
// for up to 5 s, and every session goroutine is joined before Serve returns.
// Serve closes ln. The returned error is nil after a clean ctx-triggered
// shutdown.
func (db *DB) Serve(ctx context.Context, ln net.Listener, opts ServeOptions) error {
	ss := db.NewSessionServer(opts)
	httpSrv := &http.Server{Handler: ss}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		ss.Close()
		return err
	case <-ctx.Done():
	}
	// Close the manager first: canceling the sessions publishes their final
	// events, which ends the SSE streams Shutdown would otherwise wait on.
	err := ss.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if shutErr := httpSrv.Shutdown(shutdownCtx); err == nil {
		err = shutErr
	}
	<-errCh // Serve's http.ErrServerClosed
	return err
}
