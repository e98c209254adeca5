package sqlprogress

import (
	"context"
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
}

func (o ServeOptions) sessionConfig() session.Config {
	cfg := session.Config{
		MaxConcurrent:   o.MaxConcurrent,
		MaxQueue:        o.MaxQueue,
		SampleInterval:  o.SampleInterval,
		DefaultDeadline: o.DefaultDeadline,
		KeepRows:        o.KeepRows,
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
// Close stops admission, cancels everything in flight, and joins all
// session and monitor goroutines.
func (db *DB) NewSessionServer(opts ServeOptions) *SessionServer {
	mgr := session.New(db.cat, opts.sessionConfig())
	return &SessionServer{mgr: mgr, h: server.New(mgr)}
}

// ServeHTTP implements http.Handler.
func (s *SessionServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.ServeHTTP(w, r)
}

// Close shuts the session manager down gracefully (idempotent).
func (s *SessionServer) Close() error { return s.mgr.Close() }

// Serve runs the session service on addr until ctx is canceled, then shuts
// down gracefully: the listener stops, in-flight queries are canceled, and
// all goroutines are joined before Serve returns. The returned error is nil
// after a clean ctx-triggered shutdown.
func (db *DB) Serve(ctx context.Context, addr string, opts ServeOptions) error {
	ss := db.NewSessionServer(opts)
	httpSrv := &http.Server{Addr: addr, Handler: ss}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
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
	<-errCh // ListenAndServe's http.ErrServerClosed
	return err
}
