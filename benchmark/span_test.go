package main

import "testing"

func TestSelfTimes(t *testing.T) {
	// run [0,100] with children [10,30] and [20,50] (overlapping: cover
	// 10..50 once), [90,120] (clipped to 90..100), and a grandchild that
	// must not be charged to run.
	spans := []span{
		{ID: 1, Parent: 0, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "leaf", Start: 12, End: 18},
		{ID: 6, Parent: 99, Name: "orphan", Start: 0, End: 7},
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder()
	rec.setQuery(7)
	outer := rec.begin("outer")
	inner := rec.begin("inner")
	rec.end(inner)
	rec.record("timed", rec.epoch, rec.epoch)
	rec.end(outer)
	if len(rec.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(rec.spans))
	}
	for _, s := range rec.spans[1:] {
		if s.Parent != outer || s.Query != 7 {
			t.Errorf("span %s: parent %d query %d, want parent %d query 7", s.Name, s.Parent, s.Query, outer)
		}
	}
	if o := rec.spans[0]; o.Parent != 0 || o.End < o.Start {
		t.Errorf("outer span %+v", o)
	}

	var none *recorder // a nil recorder is the untraced arm: every call is a no-op
	none.setQuery(1)
	none.end(none.begin("x"))
	none.record("y", rec.epoch, rec.epoch)
}
