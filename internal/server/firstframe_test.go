package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sqlprogress/internal/exec"
	"sqlprogress/internal/session"
)

// TestFirstFrameOverSSE is the stream contract on the wire, with periodic
// sampling out of the picture (a 24 h interval) and the run held first before
// and then inside its first counted call: a client that attaches to a session
// that has made no call yet is sent frame 0 at once; one that resumes with
// Last-Event-ID: 1 is not sent it again, and attaching takes no sample — it
// hears only heartbeats until the run is let go, then the at-stop frame and
// done; a finished session answers with done alone.
func TestFirstFrameOverSSE(t *testing.T) {
	mgr := testManager(t, session.Config{SampleInterval: 24 * time.Hour})
	srv := New(mgr)
	srv.keepAlive = 5 * time.Millisecond
	ts := httptest.NewServer(srv)
	defer ts.Close()

	start, mid, atMid := make(chan struct{}), make(chan struct{}), make(chan struct{})
	sess, err := mgr.Submit("SELECT COUNT(*) FROM supplier", session.SubmitOptions{
		Instrument: func(ctx *exec.Ctx) {
			ctx.Inject = func(calls int64) error {
				if calls == 1 {
					close(atMid)
					<-mid
				}
				return nil
			}
			<-start
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Running: the first event is frame 0, published when the run starts.
	ch, unsub := sess.Subscribe()
	if p := <-ch; p.State != session.StateRunning || p.Seq != 1 {
		t.Fatalf("first event: %+v", p)
	}
	unsub()
	if _, info := getJSON(t, ts, "/sessions/"+sess.Info().ID); info["progress"] == nil {
		t.Fatalf("running session without progress: %v", info)
	}
	url := fmt.Sprintf("%s/sessions/%s/progress", ts.URL, sess.Info().ID)

	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	first := progressOnly(readFrames(t, resp, func(evs []sseEvent) bool { return len(progressOnly(evs)) > 0 }))
	resp.Body.Close()
	if len(first) != 1 || first[0].name != "progress" || first[0].id != "1" {
		t.Fatalf("first frame: %+v", first)
	}
	f0 := first[0].data
	if f0["calls"] != 0.0 || f0["state"] != "running" || f0["lo"] != 0.0 || f0["hi"] != 0.0 || len(f0["nodes"].([]any)) == 0 {
		t.Fatalf("frame 0: %v", f0)
	}

	close(start)
	<-atMid
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("Last-Event-ID", "1")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	// A heartbeat is sent only once the stream has subscribed, so the
	// subscription is in place before the run goes on.
	held := readFrames(t, resp2, func(evs []sseEvent) bool { return len(evs) > 0 })
	if held[0].name != "heartbeat" || held[0].data["calls"] != 1.0 {
		t.Fatalf("resumed stream while the run is held: %+v", held)
	}
	close(mid)
	rest := progressOnly(readSSE(t, resp2))
	if len(rest) != 2 || rest[1].name != "done" {
		t.Fatalf("rest of the resumed stream: %+v", rest)
	}
	atStop, done := rest[0], rest[1].data
	total := done["calls"].(float64)
	if atStop.name != "progress" || atStop.id != "2" || atStop.data["calls"] != total || done["final_estimate"] != 1.0 {
		t.Fatalf("at-stop %+v, done %v", atStop, done)
	}
	if f0["lb"].(float64) > total || f0["ub"].(float64) < total {
		t.Fatalf("frame 0's [%v, %v] does not hold the total %v", f0["lb"], f0["ub"], total)
	}

	resp3, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if late := readSSE(t, resp3); len(late) != 1 || late[0].name != "done" {
		t.Fatalf("stream of a finished session: %+v", late)
	}
}

// progressOnly drops the heartbeats from evs.
func progressOnly(evs []sseEvent) []sseEvent {
	var out []sseEvent
	for _, ev := range evs {
		if ev.name != "heartbeat" {
			out = append(out, ev)
		}
	}
	return out
}
