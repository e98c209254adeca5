package main

import (
	"bufio"
	"io"
	"strings"
	"testing"
)

const sampleStream = "retry: 1000\n\n" +
	"id: 1\nevent: progress\ndata: {\"seq\":1,\"calls\":10,\"lb\":50,\"ub\":200,\"lo\":0.05,\"hi\":0.2}\n\n" +
	"event: heartbeat\ndata: {\"calls\":12}\n\n" +
	"id: 2\nevent: progress\ndata: {\"seq\":2,\"calls\":60,\n" + "data: \"lb\":90,\"ub\":120,\"lo\":0.5,\"hi\":0.66}\n\n" +
	"id: 3\nevent: done\ndata: {\"state\":\"finished\",\"calls\":100,\"row_count\":3,\"final_estimate\":1}\n\n"

func readAll(t *testing.T, s string) []sseFrame {
	t.Helper()
	br := bufio.NewReader(strings.NewReader(s))
	var out []sseFrame
	for {
		f, err := readSSEFrame(br)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("readSSEFrame: %v", err)
		}
		out = append(out, f)
	}
}

func TestReadSSEFrame(t *testing.T) {
	frames := readAll(t, sampleStream)
	if len(frames) != 5 {
		t.Fatalf("got %d frames, want 5", len(frames))
	}
	if f := frames[0]; f.Event != "" || f.Data != "" || f.Bytes != len("retry: 1000\n\n") {
		t.Errorf("retry hint parsed as %+v", f)
	}
	if f := frames[1]; f.Event != "progress" || f.ID != "1" || !strings.HasPrefix(f.Data, `{"seq":1`) {
		t.Errorf("first progress frame parsed as %+v", f)
	}
	if f := frames[3]; !strings.Contains(f.Data, "\n") || f.ID != "2" {
		t.Errorf("two data lines must join with LF: %+v", f)
	}
	total := 0
	for _, f := range frames {
		total += f.Bytes
	}
	if total != len(sampleStream) {
		t.Errorf("frame bytes sum to %d, stream is %d", total, len(sampleStream))
	}
	br := bufio.NewReader(strings.NewReader("event: progress\ndata: {}\n"))
	if _, err := readSSEFrame(br); err != io.ErrUnexpectedEOF {
		t.Errorf("stream cut mid-frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestCheckFrames(t *testing.T) {
	want := expectation{Rows: 3, CallsLo: 100, CallsHi: 100}
	if err := checkFrames(readAll(t, sampleStream), want); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	bad := map[string]struct {
		from, to string
		want     expectation
	}{
		"no done":         {"event: done", "event: heartbeat", want},
		"not finished":    {`"state":"finished"`, `"state":"canceled"`, want},
		"final estimate":  {`"final_estimate":1`, `"final_estimate":0.9`, want},
		"row count":       {"", "", expectation{Rows: 4, CallsLo: 100, CallsHi: 100}},
		"calls below":     {"", "", expectation{Rows: 3, CallsLo: 101, CallsHi: 120}},
		"seq repeats":     {`"seq":2`, `"seq":1`, want},
		"calls decrease":  {`"calls":60`, `"calls":9`, want},
		"lo above hi":     {`"lo":0.5`, `"lo":0.7`, want},
		"lb above total":  {`"lb":90`, `"lb":101`, want},
		"ub below total":  {`"ub":120`, `"ub":99`, want},
		"malformed frame": {`{"seq":1,`, `{"seq":`, want},
	}
	for name, c := range bad {
		s := sampleStream
		if c.from != "" {
			if !strings.Contains(s, c.from) {
				t.Fatalf("%s: fixture has no %q", name, c.from)
			}
			s = strings.Replace(s, c.from, c.to, 1)
		}
		if err := checkFrames(readAll(t, s), c.want); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
