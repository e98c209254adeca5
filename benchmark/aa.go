package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the A/A mode needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA runs the end-to-end suite twice on the same build and prints both
// sets side by side with, per metric × workload, how much worse the second
// is than the first as a share of the first. It reports false if any pair
// exceeds the metric's bound in BENCHMARK.json (read from the working
// directory) or any query failed.
func runAA(bin string, selected []workload, seed int64, dur time.Duration) bool {
	buf, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fatalf("-aa: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		fatalf("-aa: BENCHMARK.json: %v", err)
	}
	var sets [2][]*runResult
	ok := true
	for pass := range sets {
		for i := range selected {
			res, err := runWorkload(bin, &selected[i], seed, dur, 0, "")
			if err != nil {
				fatalf("%s: %v", selected[i].name, err)
			}
			fmt.Printf("# pass %d %s attempted=%d failed=%d\n", pass+1, res.workload, res.attempted, res.failed)
			if res.failed > 0 {
				ok = false
			}
			sets[pass] = append(sets[pass], res)
		}
	}
	fmt.Printf("%-18s %-24s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for i := range selected {
		a, b := sets[0][i], sets[1][i]
		for _, m := range spec.EndToEnd {
			va, vb := valueOf(a.endToEnd, m.Name), valueOf(b.endToEnd, m.Name)
			d := relDiff(va, vb, m.Better == "higher")
			verdict := ""
			// Either order of the pair must fit: an A/A pair has no "parent".
			if d > m.Bound || relDiff(vb, va, m.Better == "higher") > m.Bound {
				verdict = "  EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("%-18s %-24s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n", a.workload, m.Name, va, vb, 100*d, 100*m.Bound, verdict)
		}
	}
	return ok
}

func valueOf(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}
