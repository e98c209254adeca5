package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/session"
	"sqlprogress/internal/tpch"
)

var (
	catOnce sync.Once
	catMem  *catalog.Catalog
)

func testManager(t *testing.T, cfg session.Config) *session.Manager {
	t.Helper()
	catOnce.Do(func() {
		catMem = tpch.Generate(tpch.Config{SF: 0.002, Z: 2, Seed: 7})
	})
	if cfg.SampleInterval == 0 {
		cfg.SampleInterval = 200 * time.Microsecond
	}
	m := session.New(catMem, cfg)
	t.Cleanup(func() { m.Close() })
	return m
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, map[string]any) {
	t.Helper()
	buf, _ := json.Marshal(body)
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	return resp, out
}

func getJSON(t *testing.T, ts *httptest.Server, path string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	return resp, out
}

func TestSubmitAndFetchSession(t *testing.T) {
	ts := httptest.NewServer(New(testManager(t, session.Config{})))
	defer ts.Close()

	resp, body := postJSON(t, ts, "/query", map[string]any{"sql": "SELECT COUNT(*) FROM lineitem"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d: %v", resp.StatusCode, body)
	}
	id, _ := body["id"].(string)
	if id == "" {
		t.Fatalf("no id in %v", body)
	}

	// Poll until terminal.
	deadline := time.Now().Add(10 * time.Second)
	var info map[string]any
	for {
		_, info = getJSON(t, ts, "/sessions/"+id)
		st, _ := info["state"].(string)
		if st == "finished" {
			break
		}
		if st == "failed" || st == "canceled" {
			t.Fatalf("session ended %s: %v", st, info)
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout, info %v", info)
		}
		time.Sleep(time.Millisecond)
	}
	if rc, _ := info["row_count"].(float64); rc != 1 {
		t.Fatalf("row_count = %v", info["row_count"])
	}
	prog, _ := info["progress"].(map[string]any)
	if prog == nil || prog["final"] != true {
		t.Fatalf("progress = %v", prog)
	}

	_, list := getJSON(t, ts, "/sessions")
	if n := len(list["sessions"].([]any)); n != 1 {
		t.Fatalf("sessions = %d", n)
	}

	_, metrics := getJSON(t, ts, "/metrics")
	if metrics["admitted"].(float64) != 1 || metrics["completed"].(float64) != 1 {
		t.Fatalf("metrics = %v", metrics)
	}
}

func TestSubmitErrors(t *testing.T) {
	ts := httptest.NewServer(New(testManager(t, session.Config{})))
	defer ts.Close()

	resp, _ := postJSON(t, ts, "/query", map[string]any{"sql": "NOT SQL AT ALL"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("compile error status = %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts, "/query", map[string]any{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty sql status = %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/sessions/q424242")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session status = %d", resp.StatusCode)
	}
}

// TestSubmitBodyCap: a well-formed submission padded one byte past
// maxSubmitBody is refused with 413 and admits nothing.
func TestSubmitBodyCap(t *testing.T) {
	mgr := testManager(t, session.Config{})
	srv := New(mgr)
	head, tail := `{"sql":"SELECT COUNT(*) FROM nation`, `"}`
	body := head + strings.Repeat(" ", maxSubmitBody+1-len(head)-len(tail)) + tail
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte body: status %d, want 413: %s", len(body), rec.Code, rec.Body.String())
	}
	if n := mgr.Metrics().Admitted; n != 0 {
		t.Fatalf("%d-byte body: %d sessions admitted, want 0", len(body), n)
	}
}

func TestShedReturns503(t *testing.T) {
	ts := httptest.NewServer(New(testManager(t, session.Config{MaxConcurrent: 1, MaxQueue: 1})))
	defer ts.Close()

	// One slow runner, one queued, then shed.
	slow := "SELECT COUNT(*) FROM orders, lineitem"
	if resp, body := postJSON(t, ts, "/query", map[string]any{"sql": slow}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first: %d %v", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts, "/query", map[string]any{"sql": slow}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second: %d %v", resp.StatusCode, body)
	}
	resp, body := postJSON(t, ts, "/query", map[string]any{"sql": slow})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third: %d %v", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no Retry-After")
	}
	_, metrics := getJSON(t, ts, "/metrics")
	if metrics["shed"].(float64) != 1 {
		t.Fatalf("metrics = %v", metrics)
	}
}

func TestCancelEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(testManager(t, session.Config{})))
	defer ts.Close()

	_, body := postJSON(t, ts, "/query", map[string]any{"sql": "SELECT COUNT(*) FROM orders, lineitem"})
	id := body["id"].(string)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, info := getJSON(t, ts, "/sessions/"+id)
		if info["state"] == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("not canceled: %v", info)
		}
		time.Sleep(time.Millisecond)
	}
}

// sseEvent is one parsed frame from the SSE stream.
type sseEvent struct {
	name string
	id   string
	data map[string]any
}

func readSSE(t *testing.T, resp *http.Response) []sseEvent {
	t.Helper()
	defer resp.Body.Close()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
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
			}
		}
	}
	return events
}

func TestProgressStreamEndsWithDone(t *testing.T) {
	ts := httptest.NewServer(New(testManager(t, session.Config{})))
	defer ts.Close()

	_, body := postJSON(t, ts, "/query", map[string]any{"sql": "SELECT COUNT(*) FROM lineitem, supplier"})
	id := body["id"].(string)
	resp, err := http.Get(fmt.Sprintf("%s/sessions/%s/progress", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	events := readSSE(t, resp)
	if len(events) == 0 {
		t.Fatal("no events")
	}
	last := events[len(events)-1]
	if last.name != "done" {
		t.Fatalf("last event %q: %v", last.name, last.data)
	}
	if last.data["state"] != "finished" {
		t.Fatalf("done state = %v", last.data)
	}
	if fe, _ := last.data["final_estimate"].(float64); fe != 1.0 {
		t.Fatalf("final_estimate = %v", last.data["final_estimate"])
	}
	for _, ev := range events[:len(events)-1] {
		if ev.name == "heartbeat" {
			continue
		}
		if ev.name != "progress" {
			t.Fatalf("unexpected event %q", ev.name)
		}
		ests, _ := ev.data["estimates"].(map[string]any)
		for name, v := range ests {
			f := v.(float64)
			if f < 0 || f > 1 {
				t.Fatalf("%s = %f out of [0,1]", name, f)
			}
		}
	}
}

func TestProgressStreamOnFinishedSession(t *testing.T) {
	mgr := testManager(t, session.Config{})
	ts := httptest.NewServer(New(mgr))
	defer ts.Close()

	_, body := postJSON(t, ts, "/query", map[string]any{"sql": "SELECT COUNT(*) FROM supplier"})
	id := body["id"].(string)
	sess, err := mgr.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	for !sess.State().Terminal() {
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(fmt.Sprintf("%s/sessions/%s/progress", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp)
	if len(events) == 0 || events[len(events)-1].name != "done" {
		t.Fatalf("events = %v", events)
	}
}
