package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer: its name, interval (nanoseconds since
// the recorder's epoch), the span that caused it (0 = none) and the query it
// belongs to, so all spans of one query share an identifier.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until flush. It is driven from one
// goroutine (the traced replay is single-threaded by design); a nil
// *recorder is valid and records nothing, which is how the untraced arm of
// trace.overhead_ratio runs the same code.
type recorder struct {
	epoch time.Time
	spans []span
	stack []int // open span ids, innermost last
	query int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// setQuery sets the query id stamped on subsequently opened spans.
func (r *recorder) setQuery(q int) {
	if r != nil {
		r.query = q
	}
}

// add appends a span as a child of the innermost open one.
func (r *recorder) add(name string, start, end int64) int {
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Query: r.query, Name: name, Start: start, End: end})
	return id
}

// begin opens a span and returns its id; the clock is read last, so the
// bookkeeping above is outside the span.
func (r *recorder) begin(name string) int {
	if r == nil {
		return 0
	}
	id := r.add(name, 0, 0)
	r.stack = append(r.stack, id)
	r.spans[id-1].Start = int64(time.Since(r.epoch))
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	if n := len(r.stack); n == 0 || r.stack[n-1] != id {
		panic(fmt.Sprintf("span recorder: end(%d) does not match the open span stack %v", id, r.stack))
	}
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[id-1].End = now
}

// record adds a span that was timed by the caller (the HTTP client keeps its
// own timestamps).
func (r *recorder) record(name string, start, end time.Time) {
	if r != nil {
		r.add(name, int64(start.Sub(r.epoch)), int64(end.Sub(r.epoch)))
	}
}

// selfTimes returns, parallel to spans, each span's duration minus the part
// of its interval that its direct children cover (children are clipped to
// the parent and overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if _, ok := byID[s.Parent]; ok {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// flush writes the spans to <dir>/trace-<workload>.json.
func (r *recorder) flush(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	buf, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: r.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}
