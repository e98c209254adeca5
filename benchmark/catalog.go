package main

import (
	"fmt"

	"sqlprogress/internal/core"
)

// metricDef names one metric, its unit and which direction is better.
// BENCHMARK.json lists exactly these (a unit test compares the two), and the
// runs look their units up here, so a metric cannot be reported under a name
// the contract does not know.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndDefs are the metrics of the untraced run, per workload.
func endToEndDefs() []metricDef {
	return []metricDef{
		{"setup_s", "s", lower},
		{"query_p50_ms", "ms", lower},
		{"query_p95_ms", "ms", lower},
		{"queries_per_s", "1/s", higher},
		{"first_progress_p50_ms", "ms", lower},
		{"blind_frac_p50", "ratio", lower},
		{"monitor_overhead_ratio", "ratio", lower},
		{"peak_rss_mb", "MB", lower},
	}
}

// perLayerDefs are the metrics of the traced run, per workload. Counts that
// have no better direction (plan size, sampling density) are marked with the
// direction a cheaper system would move them.
func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"sqlparse.parse_us_p50", "us", lower},
		{"sqlparse.allocs_per_op", "count", lower},
		{"compile.plan_us_p50", "us", lower},
		{"compile.allocs_per_op", "count", lower},
		{"compile.nodes_per_plan", "count", lower},
		{"exec.run_ms_p50", "ms", lower},
		{"exec.getnext_calls", "count", lower},
		{"exec.ns_per_call", "ns", lower},
		{"exec.allocs_per_query", "count", lower},
		{"exec.batch_native_frac", "ratio", higher},
	}
	for _, c := range classNames {
		defs = append(defs, metricDef{"exec.class." + c + "_ms_p50", "ms", lower})
	}
	defs = append(defs,
		metricDef{"ledger.snapshot_all_ns", "ns", lower},
		metricDef{"ledger.slots_per_plan", "count", lower},
		metricDef{"core.capture_ns", "ns", lower},
		metricDef{"core.bounds_compute_ns", "ns", lower},
	)
	ests := core.RegisteredEstimators()
	for _, e := range ests {
		defs = append(defs, metricDef{"core.estimate_ns." + e.Name(), "ns", lower})
	}
	defs = append(defs,
		metricDef{"core.samples_per_query", "count", higher},
		metricDef{"core.sample_share", "ratio", lower},
		metricDef{"core.inline_overhead_ratio", "ratio", lower},
		metricDef{"core.async_overhead_ratio", "ratio", lower},
	)
	for _, e := range ests {
		defs = append(defs, metricDef{"core.max_ratio_err_p50." + e.Name(), "ratio", lower})
	}
	defs = append(defs,
		metricDef{"core.bound_violations", "count", lower},
		metricDef{"session.submit_us_p50", "us", lower},
		metricDef{"session.queue_wait_ms_p50", "ms", lower},
		metricDef{"session.run_ms_p50", "ms", lower},
		metricDef{"session.events_per_query", "count", higher},
		metricDef{"session.first_event_ms_p50", "ms", lower},
		metricDef{"session.shed", "count", lower},
		metricDef{"session.failed", "count", lower},
		metricDef{"session.subs_evicted", "count", lower},
		metricDef{"server.submit_overhead_us_p50", "us", lower},
		metricDef{"server.sse_open_us_p50", "us", lower},
		metricDef{"server.sse_frame_bytes_p50", "B", lower},
		metricDef{"server.sse_frames_per_query", "count", higher},
		metricDef{"server.done_lag_ms_p50", "ms", lower},
		metricDef{"pager.hit_ratio", "ratio", higher},
		metricDef{"pager.misses", "count", lower},
		metricDef{"pager.evictions", "count", lower},
		metricDef{"pager.read_page_us_p50", "us", lower},
		metricDef{"pager.pages_read_per_query", "count", lower},
		metricDef{"pager.read_share", "ratio", lower},
		metricDef{"trace.overhead_ratio", "ratio", lower},
	)
	for _, c := range classNames {
		defs = append(defs, metricDef{"client.class." + c + "_p50_ms", "ms", lower})
	}
	return defs
}

// metricSet collects one run's values in the order of its definitions.
type metricSet struct {
	defs   []metricDef
	values map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metric, len(defs))}
}

// set records a value; n is the sample count behind it (0 = not a sample
// statistic).
func (s *metricSet) set(name string, v float64, n int) {
	s.values[name] = metric{Name: name, Value: v, N: n}
}

// list returns the metrics in definition order with their units. A
// definition without a value, or a value without a definition, is a bug in
// the benchmark and is reported rather than papered over.
func (s *metricSet) list() ([]metric, error) {
	out := make([]metric, 0, len(s.defs))
	for _, d := range s.defs {
		m, ok := s.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("benchmark bug: metric %s was never set", d.Name)
		}
		m.Unit = d.Unit
		out = append(out, m)
	}
	if len(s.values) != len(s.defs) {
		return nil, fmt.Errorf("benchmark bug: %d metrics set, %d defined", len(s.values), len(s.defs))
	}
	return out, nil
}
