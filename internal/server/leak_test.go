package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sqlprogress/internal/coretest"
	"sqlprogress/internal/session"
)

// frameSignal is a streaming ResponseWriter that reports the first progress
// frame written to it.
type frameSignal struct {
	*httptest.ResponseRecorder
	progress chan struct{}
}

func (w *frameSignal) Write(b []byte) (int, error) {
	if strings.Contains(string(b), "event: progress") {
		select {
		case w.progress <- struct{}{}:
		default:
		}
	}
	return len(b), nil
}

// TestSSEClientDisconnectLeaksNothing: a client that drops its progress
// stream mid-query must cost nothing once it is gone — the handler returns,
// its subscription is released, the session runs on, and after Close the
// manager and executor goroutines are all gone too.
func TestSSEClientDisconnectLeaksNothing(t *testing.T) {
	testManager(t, session.Config{}) // generate the shared catalog up front
	coretest.CheckNoGoroutineLeak(t, func() {
		mgr := session.New(catMem, session.Config{SampleInterval: 200 * time.Microsecond})
		srv := New(mgr)
		_, body := submitDirect(t, srv, "SELECT COUNT(*) FROM customer, lineitem")
		sess, err := mgr.Get(body["id"].(string))
		if err != nil {
			t.Fatal(err)
		}

		ctx, disconnect := context.WithCancel(context.Background())
		w := &frameSignal{httptest.NewRecorder(), make(chan struct{}, 1)}
		req := httptest.NewRequest(http.MethodGet, "/sessions/"+sess.Info().ID+"/progress", nil)
		handlerDone := make(chan struct{})
		go func() {
			defer close(handlerDone)
			srv.ServeHTTP(w, req.WithContext(ctx))
		}()
		select {
		case <-w.progress:
		case <-handlerDone:
			t.Fatal("stream ended before a progress frame: the query is too short to disconnect from")
		}
		disconnect()
		<-handlerDone
		if sess.State().Terminal() {
			t.Log("query finished at the moment of disconnect; the session-runs-on half went unobserved")
		}
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
