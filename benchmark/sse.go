package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// sseFrame is one Server-Sent Events frame as progressd writes it.
type sseFrame struct {
	Event string // "progress", "done", "heartbeat"; "" for a bare retry hint
	ID    string
	Data  string // data lines joined by LF
	Bytes int    // wire size including the terminating blank line
}

// readSSEFrame reads one frame (everything up to a blank line). It returns
// io.EOF only when the stream ends cleanly between frames; a stream that
// ends mid-frame is io.ErrUnexpectedEOF.
func readSSEFrame(br *bufio.Reader) (sseFrame, error) {
	var f sseFrame
	var data []string
	for {
		line, err := br.ReadString('\n')
		f.Bytes += len(line)
		if err != nil {
			if err == io.EOF && f.Bytes > 0 {
				err = io.ErrUnexpectedEOF
			}
			return f, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			f.Data = strings.Join(data, "\n")
			return f, nil
		}
		name, val, _ := strings.Cut(line, ":")
		val = strings.TrimPrefix(val, " ")
		switch name {
		case "event":
			f.Event = val
		case "id":
			f.ID = val
		case "data":
			data = append(data, val)
		}
	}
}

// progressFrame is the subset of a progress frame's payload the benchmark
// checks.
type progressFrame struct {
	Seq   int64   `json:"seq"`
	Calls int64   `json:"calls"`
	LB    int64   `json:"lb"`
	UB    int64   `json:"ub"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
}

// doneFrame is the subset of the terminal frame's payload the benchmark
// checks.
type doneFrame struct {
	State         string  `json:"state"`
	Calls         int64   `json:"calls"`
	RowCount      int     `json:"row_count"`
	FinalEstimate float64 `json:"final_estimate"`
}

// expectation is what the in-process reference says a query must report.
// Calls is a range because, with a per-page read cost, the total depends on
// how many pages were resident, which the reference, whose pool has another
// history, cannot know; for memory-resident workloads CallsLo == CallsHi.
type expectation struct {
	Rows             int
	CallsLo, CallsHi int64
}

// checkFrames validates one query's recorded stream against the reference
// and the per-frame invariants: strictly increasing seq, non-decreasing
// calls, lo ≤ hi, and lb ≤ total ≤ ub with total taken from the done frame.
// Heartbeats and retry hints are skipped.
func checkFrames(frames []sseFrame, want expectation) error {
	var done *doneFrame
	var prog []progressFrame
	for _, f := range frames {
		switch f.Event {
		case "progress":
			if done != nil {
				return fmt.Errorf("progress frame after done")
			}
			var p progressFrame
			if err := json.Unmarshal([]byte(f.Data), &p); err != nil {
				return fmt.Errorf("progress frame: %w", err)
			}
			prog = append(prog, p)
		case "done":
			if done != nil {
				return fmt.Errorf("second done frame")
			}
			done = new(doneFrame)
			if err := json.Unmarshal([]byte(f.Data), done); err != nil {
				return fmt.Errorf("done frame: %w", err)
			}
		}
	}
	if done == nil {
		return fmt.Errorf("stream ended without done")
	}
	if done.State != "finished" {
		return fmt.Errorf("final state %q", done.State)
	}
	if done.FinalEstimate != 1.0 {
		return fmt.Errorf("final_estimate %v", done.FinalEstimate)
	}
	if done.RowCount != want.Rows {
		return fmt.Errorf("row_count %d, reference %d", done.RowCount, want.Rows)
	}
	if done.Calls < want.CallsLo || done.Calls > want.CallsHi {
		return fmt.Errorf("calls %d outside reference [%d, %d]", done.Calls, want.CallsLo, want.CallsHi)
	}
	var lastSeq, lastCalls int64
	for i, p := range prog {
		switch {
		case p.Seq <= lastSeq:
			return fmt.Errorf("frame %d: seq %d after %d", i, p.Seq, lastSeq)
		case p.Calls < lastCalls:
			return fmt.Errorf("frame %d: calls %d after %d", i, p.Calls, lastCalls)
		case p.Lo > p.Hi:
			return fmt.Errorf("frame %d: lo %v > hi %v", i, p.Lo, p.Hi)
		case p.LB > done.Calls || done.Calls > p.UB:
			return fmt.Errorf("frame %d: total %d outside [%d, %d]", i, done.Calls, p.LB, p.UB)
		}
		lastSeq, lastCalls = p.Seq, p.Calls
	}
	return nil
}
