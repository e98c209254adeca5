package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sqlprogress/internal/session"
)

// doneEvent is the SSE stream's terminal frame.
type doneEvent struct {
	ID           string        `json:"id"`
	State        session.State `json:"state"`
	Calls        int64         `json:"calls"`
	ElapsedMs    int64         `json:"elapsed_ms"`
	RowCount     int           `json:"row_count"`
	Error        string        `json:"error,omitempty"`
	CancelReason string        `json:"cancel_reason,omitempty"`
	// Estimates are each estimator's output at the final observation.
	Estimates map[string]float64 `json:"estimates,omitempty"`
	// FinalEstimate is the pmax estimate at the final instant — exactly 1.0
	// for runs that completed (Curr = total(Q) >= LB), and the hard upper
	// bound on the progress actually made for canceled or failed runs.
	FinalEstimate float64 `json:"final_estimate"`
}

// heartbeatEvent is the periodic liveness frame sent between observations.
// Unlike a comment keepalive it is visible to EventSource clients and
// carries the live call counter; it deliberately has no event id, so a
// reconnecting client's Last-Event-ID still names the last observation.
type heartbeatEvent struct {
	Calls int64         `json:"calls"`
	State session.State `json:"state"`
}

// handleProgress streams a session's progress as Server-Sent Events until
// the session reaches a terminal state or the client disconnects.
//
// Every progress frame carries the observation's sequence number as its
// SSE id; a client reconnecting with Last-Event-ID is replayed only what
// it has not seen, and — because a subscription always ends with the
// session's final event, primed with it when the session already ended —
// always observes a terminal `done` frame.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	sess, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		// SSE requires incremental writes; without a Flusher the stream
		// would sit in a buffer until the session ends.
		writeError(w, http.StatusInternalServerError,
			fmt.Errorf("streaming unsupported: ResponseWriter is not an http.Flusher"))
		return
	}
	var lastID int64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			lastID = n
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// Reconnection hint: EventSource clients retry after this many ms.
	fmt.Fprint(w, "retry: 1000\n\n")
	fl.Flush()

	out := newEventWriter(w, fl)
	ch, unsub := sess.Subscribe()
	defer unsub()
	tick := time.NewTicker(s.keepAlive)
	defer tick.Stop()

	for {
		select {
		case <-r.Context().Done():
			// Client went away; the session keeps running (an explicit
			// DELETE is the cancellation path).
			return
		case <-tick.C:
			in := sess.Summary()
			out.event(0, "heartbeat", heartbeatEvent{Calls: in.Calls, State: in.State})
		case p, open := <-ch:
			if !open || p.Final {
				// The final event ends the stream. A closed channel only
				// ever follows it, and must not spin the loop.
				writeDone(out, sess)
				return
			}
			if p.Seq <= lastID {
				// The client saw this observation before it reconnected.
				continue
			}
			out.event(p.Seq, "progress", p)
		}
	}
}

// writeDone writes the terminal frame from the session's summary (its kept
// result rows are not part of it), whose progress is the final event.
func writeDone(out *eventWriter, sess *session.Session) {
	in := sess.Summary()
	ev := doneEvent{
		ID:           in.ID,
		State:        in.State,
		Calls:        in.Calls,
		ElapsedMs:    in.Elapsed.Milliseconds(),
		RowCount:     in.RowCount,
		Error:        in.Error,
		CancelReason: in.CancelReason,
	}
	var seq int64
	if p := in.Progress; p != nil {
		ev.Estimates = p.Estimates
		ev.FinalEstimate = p.Hi
		seq = p.Seq
	}
	out.event(seq, "done", ev)
}

// eventWriter writes one stream's SSE frames, each rendered into a buffer
// the stream reuses: the JSON payload is encoded straight into the frame
// after its `data: ` prefix.
type eventWriter struct {
	w   http.ResponseWriter
	fl  http.Flusher
	buf bytes.Buffer
	enc *json.Encoder // encodes into buf
}

func newEventWriter(w http.ResponseWriter, fl http.Flusher) *eventWriter {
	e := &eventWriter{w: w, fl: fl}
	e.enc = json.NewEncoder(&e.buf)
	return e
}

// event marshals v and writes one SSE frame, flushed immediately. id 0
// means no id line (heartbeats, synthesized frames). A payload holding CR
// or LF, which encoding/json never emits, is framed by formatSSEFrame.
func (e *eventWriter) event(id int64, name string, v any) {
	e.buf.Reset()
	if id > 0 {
		e.buf.WriteString("id: ")
		e.buf.Write(strconv.AppendInt(e.buf.AvailableBuffer(), id, 10))
		e.buf.WriteByte('\n')
	}
	e.buf.WriteString("event: ")
	e.buf.WriteString(name)
	e.buf.WriteByte('\n')
	e.buf.WriteString("data: ")
	start := e.buf.Len()
	if err := e.enc.Encode(v); err != nil { // Encode ends the line with LF
		return
	}
	if data := e.buf.Bytes()[start : e.buf.Len()-1]; bytes.ContainsAny(data, "\r\n") {
		idLine := ""
		if id > 0 {
			idLine = strconv.FormatInt(id, 10)
		}
		frame := formatSSEFrame(idLine, name, string(data))
		e.buf.Reset()
		e.buf.WriteString(frame)
	} else {
		e.buf.WriteByte('\n')
	}
	e.w.Write(e.buf.Bytes())
	e.fl.Flush()
}

// formatSSEFrame renders one Server-Sent Events frame. The SSE spec
// terminates a data line at any newline, so payloads containing LF, CR, or
// CRLF must be split into one `data:` line per payload line (the client
// reassembles them joined by LF); a payload naively interpolated into a
// single data line would otherwise smuggle frame delimiters. JSON payloads
// escape control characters, but the framing layer must not rely on that.
func formatSSEFrame(id, event, data string) string {
	var b strings.Builder
	if id != "" {
		b.WriteString("id: ")
		b.WriteString(id)
		b.WriteByte('\n')
	}
	if event != "" {
		b.WriteString("event: ")
		b.WriteString(event)
		b.WriteByte('\n')
	}
	data = strings.ReplaceAll(data, "\r\n", "\n")
	data = strings.ReplaceAll(data, "\r", "\n")
	for _, line := range strings.Split(data, "\n") {
		b.WriteString("data: ")
		b.WriteString(line)
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	return b.String()
}
