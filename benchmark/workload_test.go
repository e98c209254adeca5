package main

import (
	"reflect"
	"testing"

	"sqlprogress/internal/sqlparse"
)

func TestStreamsAreDeterministic(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := w.stream(7, 500), w.stream(7, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different streams", w.name)
		}
		if reflect.DeepEqual(a, w.stream(8, 500)) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
		if !reflect.DeepEqual(a[:100], w.stream(7, 100)) {
			t.Errorf("%s: a shorter stream is not a prefix of a longer one", w.name)
		}
	}
}

func TestStreamComposition(t *testing.T) {
	known := map[string]bool{}
	for _, c := range classNames {
		known[c] = true
	}
	for i := range workloads {
		w := &workloads[i]
		if w.why == "" || len(w.why) > 200 {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		block := 0
		for _, c := range w.classes {
			block += c.weight
			if !known[c.name] {
				t.Errorf("%s: class %s is missing from classNames", w.name, c.name)
			}
		}
		// Every whole block holds each class exactly weight times.
		counts := map[string]int{}
		distinct := map[string]bool{}
		for _, q := range w.stream(11, 10*block) {
			counts[q.Class]++
			distinct[q.SQL] = true
			if _, err := sqlparse.Parse(q.SQL); err != nil {
				t.Errorf("%s: %s: %v", w.name, q.SQL, err)
			}
		}
		for _, c := range w.classes {
			if counts[c.name] != 10*c.weight {
				t.Errorf("%s: class %s appears %d times in 10 blocks, want %d", w.name, c.name, counts[c.name], 10*c.weight)
			}
		}
		if max := variantsPerClass * len(w.classes); len(distinct) > max {
			t.Errorf("%s: %d distinct queries, at most %d expected", w.name, len(distinct), max)
		}
	}
}
