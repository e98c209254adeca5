package sqlprogress

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRunContextDeadline(t *testing.T) {
	db := OpenTPCH(0.002, 2, 42)
	q, err := db.Query("SELECT COUNT(*) FROM orders, lineitem")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := q.RunContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestRunWithProgressContextCancel(t *testing.T) {
	db := OpenTPCH(0.002, 2, 42)
	q, err := db.Query("SELECT COUNT(*) FROM orders, lineitem")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	fired := false
	_, err = q.RunWithProgressContext(ctx, ProgressOptions{Every: 1000}, func(u ProgressUpdate) {
		if !fired && u.Calls > 5000 {
			fired = true
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !fired {
		t.Fatal("callback never saw enough progress to cancel")
	}
}

func TestExplicitCancelStillErrCanceled(t *testing.T) {
	db := OpenTPCH(0.002, 2, 42)
	q, err := db.Query("SELECT COUNT(*) FROM orders, lineitem")
	if err != nil {
		t.Fatal(err)
	}
	_, err = q.RunWithProgressContext(context.Background(), ProgressOptions{Every: 1000}, func(u ProgressUpdate) {
		q.Cancel()
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// streamQuery submits sql to the session service at base and reads the
// session's SSE progress stream to its done event. It returns every progress
// event's payload and the done event's.
func streamQuery(t *testing.T, base, sql string) (progress []map[string]any, done map[string]any) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"sql": sql})
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || sub.ID == "" {
		t.Fatalf("submit %q: status %d, id %q, err %v", sql, resp.StatusCode, sub.ID, err)
	}
	stream, err := http.Get(base + "/sessions/" + sub.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	event := ""
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || (event != "progress" && event != "done") {
			continue
		}
		var v map[string]any
		if err := json.Unmarshal([]byte(data), &v); err != nil {
			t.Fatal(err)
		}
		if event == "done" {
			return progress, v
		}
		progress = append(progress, v)
	}
	t.Fatalf("session %s: stream ended without a done event (%v)", sub.ID, sc.Err())
	return nil, nil
}

// TestSessionServerEndToEnd drives the public session service the way
// progressd's clients do: submit, stream SSE to completion, check metrics.
func TestSessionServerEndToEnd(t *testing.T) {
	db := OpenTPCH(0.002, 2, 42)
	ss := db.NewSessionServer(ServeOptions{
		MaxConcurrent:  4,
		SampleInterval: 200 * time.Microsecond,
		Estimators:     []EstimatorKind{Dne, Pmax, Safe},
	})
	defer ss.Close()
	ts := httptest.NewServer(ss)
	defer ts.Close()

	progress, done := streamQuery(t, ts.URL, "SELECT COUNT(*) FROM lineitem, supplier")
	if len(progress) == 0 {
		t.Fatal("no progress event before done")
	}
	if done["state"] != "finished" || done["final_estimate"] != 1.0 {
		t.Fatalf("done = %v", done)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Admitted  int64 `json:"admitted"`
		Completed int64 `json:"completed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if metrics.Admitted != 1 || metrics.Completed != 1 {
		t.Fatalf("metrics = %+v", metrics)
	}
}

// TestSessionServerPublishesPoolCounters: a session service over a spilled
// database streams the buffer pool's counters on every progress event, the
// same as progressd -spill, and its scans show up in them as page reads.
func TestSessionServerPublishesPoolCounters(t *testing.T) {
	db := OpenTPCH(0.002, 2, 42)
	if err := db.SpillToDisk(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	ss := db.NewSessionServer(ServeOptions{SampleInterval: 200 * time.Microsecond})
	defer ss.Close()
	ts := httptest.NewServer(ss)
	defer ts.Close()

	progress, done := streamQuery(t, ts.URL, "SELECT COUNT(*) FROM lineitem, supplier")
	if done["state"] != "finished" {
		t.Fatalf("done = %v", done)
	}
	var gets float64
	for i, p := range progress {
		pool, ok := p["pool"].(map[string]any)
		if !ok {
			t.Fatalf("progress event %d (seq %v) carries no pool counters: %v", i, p["seq"], p)
		}
		gets = pool["hits"].(float64) + pool["misses"].(float64)
	}
	if gets == 0 {
		t.Fatalf("last progress event's pool shows no page access over %d events", len(progress))
	}
}

// TestServeGracefulShutdown exercises DB.Serve end to end: it serves one
// query on its listener to the done event, then shuts down cleanly on
// context cancel.
func TestServeGracefulShutdown(t *testing.T) {
	db := OpenTPCH(0.002, 2, 42)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() {
		served <- db.Serve(ctx, ln, ServeOptions{})
	}()
	_, done := streamQuery(t, "http://"+ln.Addr().String(), "SELECT COUNT(*) FROM lineitem, supplier")
	if done["state"] != "finished" || done["final_estimate"] != 1.0 {
		t.Fatalf("done = %v", done)
	}
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
}
