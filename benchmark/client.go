package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// The load is one closed-loop client: it sends its next POST /query only
// after it has read the previous query's done frame, so one connection is in
// flight at any time. The sandbox has two cores; a second client saturates
// both with executor goroutines and the run then measures how the scheduler
// shares them among executors, the sampler, the SSE writer, the garbage
// collector and the client itself.

// warmupPairs query pairs run before the measured phase and are excluded
// from every metric (they still must succeed).
const warmupPairs = 8

// queryRecord is what a client keeps per query. Frames are validated after
// the measured phase so JSON decoding never sits between two requests.
type queryRecord struct {
	q        query
	sent     time.Time
	frameAt  []time.Duration // arrival of each progress/done frame since sent
	frames   []sseFrame
	openedAt time.Duration // SSE response headers received, since sent
	postDone time.Duration // POST response read, since sent
	// sessionID is the id progressd assigned (for in-process lookups).
	sessionID string
	err       error
}

func (r *queryRecord) latency() time.Duration { return r.frameAt[len(r.frameAt)-1] }

// blindFrac is the longest interval with no progress frame (submit→first,
// between frames, last→done) as a share of the query's duration.
func (r *queryRecord) blindFrac() float64 {
	var longest, prev time.Duration
	for _, t := range r.frameAt {
		if t-prev > longest {
			longest = t - prev
		}
		prev = t
	}
	return float64(longest) / float64(r.latency())
}

// runQuery submits one query and reads its progress stream to the done
// frame. base is "http://host:port".
func runQuery(client *http.Client, base string, q query) *queryRecord {
	rec := &queryRecord{q: q}
	body, _ := json.Marshal(map[string]string{"sql": q.SQL}) // a string map cannot fail to marshal
	rec.sent = time.Now()
	resp, err := client.Post(base+"/query", "application/json", strings.NewReader(string(body)))
	if err != nil {
		rec.err = fmt.Errorf("POST /query: %w", err)
		return rec
	}
	var info struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&info)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rec.postDone = time.Since(rec.sent)
	rec.sessionID = info.ID
	if resp.StatusCode != http.StatusAccepted {
		rec.err = fmt.Errorf("POST /query: status %d", resp.StatusCode)
		return rec
	}
	if err != nil {
		rec.err = fmt.Errorf("POST /query: response: %w", err)
		return rec
	}
	stream, err := client.Get(base + "/sessions/" + info.ID + "/progress")
	if err != nil {
		rec.err = fmt.Errorf("GET progress: %w", err)
		return rec
	}
	defer stream.Body.Close()
	rec.openedAt = time.Since(rec.sent)
	if stream.StatusCode != http.StatusOK {
		rec.err = fmt.Errorf("GET progress: status %d", stream.StatusCode)
		return rec
	}
	br := bufio.NewReader(stream.Body)
	for {
		f, err := readSSEFrame(br)
		if err != nil {
			rec.err = fmt.Errorf("stream ended without done: %w", err)
			return rec
		}
		if f.Event != "progress" && f.Event != "done" {
			continue
		}
		rec.frameAt = append(rec.frameAt, time.Since(rec.sent))
		rec.frames = append(rec.frames, f)
		if f.Event == "done" {
			// Drain to EOF so the connection goes back to the pool.
			io.Copy(io.Discard, br)
			return rec
		}
	}
}

// loadResult is one closed-loop run's raw outcome. monitored[i] and twin[i]
// are the same SQL text on the two daemons.
type loadResult struct {
	monitored, twin []*queryRecord // measured phase only
	rssMB           float64        // the monitored daemon's
}

// runLoad drives a pair of daemons with the one client: d, the daemon under
// measurement, and twin, the same build serving the same data with sampling
// off. Every query of the stream, from offset on, goes to both, one after
// the other, the monitored daemon first on even queries and second on odd
// ones, so that whatever state the shared host is in, and whatever the first
// execution leaves in the caches for the second, falls on both alike. A
// warm-up of warmupPairs pairs comes first, then the measured phase until
// dur has elapsed. The monitored daemon's peak RSS is read when the
// rssAfter-th measured pair completes (or at the end if the run is shorter).
func runLoad(client *http.Client, d, twin *daemon, w *workload, stream []query, offset int, dur time.Duration) (*loadResult, error) {
	bases := [2]string{"http://" + d.addr, "http://" + twin.addr}
	pair := func(i int) [2]*queryRecord {
		q := stream[(offset+i)%len(stream)]
		var recs [2]*queryRecord
		for k := range recs {
			who := (i + k) % 2
			recs[who] = runQuery(client, bases[who], q)
		}
		return recs
	}
	for i := 0; i < warmupPairs; i++ {
		for _, rec := range pair(i) {
			if rec.err != nil {
				return nil, fmt.Errorf("warm-up: %s: %w", rec.q.SQL, rec.err)
			}
		}
	}
	res := &loadResult{}
	var err error
	deadline := time.Now().Add(dur)
	for i := warmupPairs; time.Now().Before(deadline); i++ {
		recs := pair(i)
		res.monitored = append(res.monitored, recs[0])
		res.twin = append(res.twin, recs[1])
		if len(res.monitored) == w.rssAfter {
			if res.rssMB, err = d.peakRSSMB(); err != nil {
				return nil, err
			}
		}
	}
	if len(res.monitored) < w.rssAfter {
		if res.rssMB, err = d.peakRSSMB(); err != nil {
			return nil, err
		}
	}
	return res, nil
}
