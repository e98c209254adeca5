package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"sqlprogress/internal/session"
)

func TestFormatSSEFrame(t *testing.T) {
	cases := []struct {
		id, event, data string
		want            string
	}{
		{"", "progress", `{"a":1}`, "event: progress\ndata: {\"a\":1}\n\n"},
		{"7", "progress", `{"a":1}`, "id: 7\nevent: progress\ndata: {\"a\":1}\n\n"},
		// A payload newline must become a second data: line, not a frame
		// delimiter smuggled into the stream.
		{"", "x", "one\ntwo", "event: x\ndata: one\ndata: two\n\n"},
		{"", "x", "one\r\ntwo", "event: x\ndata: one\ndata: two\n\n"},
		{"", "x", "one\rtwo", "event: x\ndata: one\ndata: two\n\n"},
		{"", "x", "a\n\nb", "event: x\ndata: a\ndata: \ndata: b\n\n"},
		{"3", "", "d", "id: 3\ndata: d\n\n"},
		{"", "x", "", "event: x\ndata: \n\n"},
	}
	for _, c := range cases {
		if got := formatSSEFrame(c.id, c.event, c.data); got != c.want {
			t.Errorf("formatSSEFrame(%q, %q, %q) = %q, want %q", c.id, c.event, c.data, got, c.want)
		}
	}
}

// TestEventWriterMatchesFormatSSEFrame holds the stream's frame writer to
// formatSSEFrame over json.Marshal's payload, frame after frame through the
// one reused buffer — a string value's newline included, which the JSON
// escapes, so its frame stays one data line.
func TestEventWriterMatchesFormatSSEFrame(t *testing.T) {
	events := []struct {
		id   int64
		name string
		v    any
	}{
		{7, "progress", map[string]any{"calls": 12, "state": "running"}},
		{0, "heartbeat", heartbeatEvent{Calls: 3, State: session.StateRunning}},
		{9, "done", doneEvent{ID: "q000001", Error: "line one\nline two\r\n<&>"}},
	}
	rec := httptest.NewRecorder()
	out := newEventWriter(rec, rec)
	var want strings.Builder
	for _, e := range events {
		out.event(e.id, e.name, e.v)
		payload, err := json.Marshal(e.v)
		if err != nil {
			t.Fatal(err)
		}
		id := ""
		if e.id > 0 {
			id = strconv.FormatInt(e.id, 10)
		}
		want.WriteString(formatSSEFrame(id, e.name, string(payload)))
	}
	if got := rec.Body.String(); got != want.String() {
		t.Errorf("stream = %q, want %q", got, want.String())
	}
}

// noFlushWriter hides the ResponseRecorder's Flusher so the handler sees a
// writer that cannot stream.
type noFlushWriter struct {
	rec *httptest.ResponseRecorder
}

func (w noFlushWriter) Header() http.Header         { return w.rec.Header() }
func (w noFlushWriter) Write(b []byte) (int, error) { return w.rec.Write(b) }
func (w noFlushWriter) WriteHeader(code int)        { w.rec.WriteHeader(code) }

func TestProgressStreamRequiresFlusher(t *testing.T) {
	mgr := testManager(t, session.Config{})
	srv := New(mgr)

	_, body := submitDirect(t, srv, "SELECT COUNT(*) FROM supplier")
	id := body["id"].(string)

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/sessions/"+id+"/progress", nil)
	srv.ServeHTTP(noFlushWriter{rec}, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "streaming unsupported") {
		t.Fatalf("body = %q", rec.Body.String())
	}
}

func submitDirect(t *testing.T, srv *Server, sql string) (*http.Response, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(fmt.Sprintf(`{"sql":%q}`, sql)))
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", rec.Code, rec.Body.String())
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return rec.Result(), out
}

func TestHeartbeatAndRetryHint(t *testing.T) {
	mgr := testManager(t, session.Config{})
	srv := New(mgr)
	srv.keepAlive = 2 * time.Millisecond
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, body := postJSON(t, ts, "/query", map[string]any{"sql": "SELECT COUNT(*) FROM customer, lineitem"})
	id := body["id"].(string)
	resp, err := http.Get(fmt.Sprintf("%s/sessions/%s/progress", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read raw frames so line-level details (retry hint, absent id on
	// heartbeats) stay visible. Stop as soon as both behaviours are seen.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var sawRetry, sawHeartbeat bool
	var frame []string
	deadline := time.Now().Add(15 * time.Second)
	for !(sawRetry && sawHeartbeat) && sc.Scan() && time.Now().Before(deadline) {
		line := sc.Text()
		if strings.HasPrefix(line, "retry: ") {
			sawRetry = true
			continue
		}
		if line != "" {
			frame = append(frame, line)
			continue
		}
		if len(frame) > 0 && frame[0] == "event: heartbeat" {
			sawHeartbeat = true
			for _, l := range frame {
				if strings.HasPrefix(l, "id: ") {
					t.Fatalf("heartbeat frame carries an id: %v", frame)
				}
			}
			var hb map[string]any
			if err := json.Unmarshal([]byte(strings.TrimPrefix(frame[1], "data: ")), &hb); err != nil {
				t.Fatalf("heartbeat payload: %v", err)
			}
			if _, ok := hb["calls"]; !ok {
				t.Fatalf("heartbeat missing calls: %v", hb)
			}
		}
		done := len(frame) > 0 && frame[0] == "event: done"
		frame = frame[:0]
		if done {
			break
		}
	}
	if !sawRetry {
		t.Fatal("no retry: hint at stream start")
	}
	if !sawHeartbeat {
		t.Fatal("no heartbeat frame observed")
	}
}

// readFrames reads SSE frames from r until stop returns true or the stream
// ends, returning the frames read.
func readFrames(t *testing.T, r *http.Response, stop func([]sseEvent) bool) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = map[string]any{}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("bad data line %q: %v", line, err)
			}
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				cur = sseEvent{}
				if stop(events) {
					return events
				}
			}
		}
	}
	return events
}

// TestLastEventIDResume drops an SSE connection mid-query and reconnects
// with Last-Event-ID: the server must skip observations the client already
// has, and the reconnected stream must still end with the terminal done
// frame — the "reconnecting client never misses the final event"
// guarantee. Once the resumed stream shows a new observation the session is
// canceled, so the query need not run to completion.
func TestLastEventIDResume(t *testing.T) {
	mgr := testManager(t, session.Config{})
	ts := httptest.NewServer(New(mgr))
	defer ts.Close()

	_, body := postJSON(t, ts, "/query", map[string]any{"sql": "SELECT COUNT(*) FROM customer, lineitem"})
	id := body["id"].(string)
	url := fmt.Sprintf("%s/sessions/%s/progress", ts.URL, id)

	// First connection: read a couple of progress observations, then drop.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	events := readFrames(t, resp, func(evs []sseEvent) bool {
		return len(progressFrames(evs)) >= 2
	})
	resp.Body.Close()
	var lastID int64
	for _, ev := range progressFrames(events) {
		n, err := strconv.ParseInt(ev.id, 10, 64)
		if err != nil {
			t.Fatalf("progress frame id %q: %v", ev.id, err)
		}
		if n <= lastID {
			t.Fatalf("event ids not increasing: %d after %d", n, lastID)
		}
		if seq, _ := ev.data["seq"].(float64); int64(seq) != n {
			t.Fatalf("id %d != payload seq %v", n, ev.data["seq"])
		}
		lastID = n
	}
	if lastID == 0 {
		t.Skip("query finished before two observations were streamed")
	}

	// Reconnect with Last-Event-ID, as an EventSource client would, and
	// cancel the session at the first observation the client has not seen.
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("Last-Event-ID", strconv.FormatInt(lastID, 10))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	canceled := false
	events2 := readFrames(t, resp2, func(evs []sseEvent) bool {
		ev := evs[len(evs)-1]
		if ev.name == "progress" && !canceled {
			canceled = true
			del, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id, nil)
			r, err := http.DefaultClient.Do(del)
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
		}
		return ev.name == "done"
	})
	if len(events2) == 0 {
		t.Fatal("no events after resume")
	}
	for _, ev := range progressFrames(events2) {
		n, _ := strconv.ParseInt(ev.id, 10, 64)
		if n <= lastID {
			t.Fatalf("resumed stream replayed seq %d <= Last-Event-ID %d", n, lastID)
		}
		if seq, _ := ev.data["seq"].(float64); int64(seq) != n {
			t.Fatalf("id %d != payload seq %v", n, ev.data["seq"])
		}
		lastID = n
	}
	last := events2[len(events2)-1]
	if last.name != "done" {
		t.Fatalf("resumed stream ended with %q: %v", last.name, last.data)
	}
	fe, _ := last.data["final_estimate"].(float64)
	switch st := last.data["state"]; {
	case st == "canceled" && fe > 0 && fe <= 1:
	case st == "finished" && fe == 1: // the run ended before the cancel landed
	default:
		t.Fatalf("done frame of the resumed stream: %v", last.data)
	}

	// Reconnecting after the session is already terminal must still yield
	// the done frame immediately.
	req3, _ := http.NewRequest(http.MethodGet, url, nil)
	req3.Header.Set("Last-Event-ID", last.id)
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	events3 := readSSE(t, resp3)
	if len(events3) == 0 || events3[len(events3)-1].name != "done" {
		t.Fatalf("post-terminal reconnect events = %v", events3)
	}
}

// progressFrames keeps the progress frames of evs.
func progressFrames(evs []sseEvent) []sseEvent {
	var out []sseEvent
	for _, ev := range evs {
		if ev.name == "progress" {
			out = append(out, ev)
		}
	}
	return out
}
