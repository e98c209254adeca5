package session

import (
	"sync/atomic"
	"time"
)

// counters are the manager's monotone aggregate counters, updated with
// atomics so the hot admission/completion paths never serialize on a
// metrics lock.
type counters struct {
	admitted       atomic.Int64
	shed           atomic.Int64
	rejected       atomic.Int64
	completed      atomic.Int64
	canceled       atomic.Int64
	failed         atomic.Int64
	cancelRequests atomic.Int64
	cancelObserved atomic.Int64
	cancelNs       atomic.Int64
	cancelMaxNs    atomic.Int64
	stallEvents    atomic.Int64
}

// recordCancelLatency records one request-to-stop latency: the time from a
// cancel request against a running session to its executor actually
// returning — the responsiveness the paper's "watch the bar, kill the
// query" scenario depends on.
func (c *counters) recordCancelLatency(d time.Duration) {
	c.cancelObserved.Add(1)
	c.cancelNs.Add(int64(d))
	for {
		cur := c.cancelMaxNs.Load()
		if int64(d) <= cur || c.cancelMaxNs.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Metrics is a point-in-time snapshot of the manager's aggregate state.
type Metrics struct {
	// Admitted counts sessions accepted (queued or started).
	Admitted int64 `json:"admitted"`
	// Shed counts submissions refused because the queue was at its cap.
	Shed int64 `json:"shed"`
	// Rejected counts submissions refused before admission (compile errors,
	// unknown estimators).
	Rejected int64 `json:"rejected"`
	// Active and Queued are the current gauge values.
	Active int `json:"active"`
	Queued int `json:"queued"`
	// Completed / Canceled / Failed count terminal transitions.
	Completed int64 `json:"completed"`
	Canceled  int64 `json:"canceled"`
	Failed    int64 `json:"failed"`
	// CancelRequests counts Cancel calls that hit a live session;
	// CancelObserved counts those whose executor stop latency was measured
	// (i.e. the session was mid-flight).
	CancelRequests int64 `json:"cancel_requests"`
	CancelObserved int64 `json:"cancel_observed"`
	// CancelLatencyAvg / CancelLatencyMax aggregate request-to-stop
	// latency over observed mid-flight cancels.
	CancelLatencyAvg time.Duration `json:"cancel_latency_avg_ns"`
	CancelLatencyMax time.Duration `json:"cancel_latency_max_ns"`
	// StallEvents counts stall episodes: gaps of at least StallAfter
	// between a running session's consecutive events. An episode is counted
	// when it ends, at the next event (the final one included), while
	// Info.Stalled shows it as it happens.
	StallEvents int64 `json:"stall_events"`
	// SubscribersEvicted is always 0: no subscriber is closed before its
	// final event. It stays only because the benchmark harness still
	// reads it, until that harness changes next.
	SubscribersEvicted int64 `json:"subscribers_evicted"`
}

// Metrics snapshots the aggregate counters and gauges.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	active, queued := m.running, len(m.queue)
	m.mu.Unlock()
	out := Metrics{
		Admitted:         m.c.admitted.Load(),
		Shed:             m.c.shed.Load(),
		Rejected:         m.c.rejected.Load(),
		Active:           active,
		Queued:           queued,
		Completed:        m.c.completed.Load(),
		Canceled:         m.c.canceled.Load(),
		Failed:           m.c.failed.Load(),
		CancelRequests:   m.c.cancelRequests.Load(),
		CancelObserved:   m.c.cancelObserved.Load(),
		CancelLatencyMax: time.Duration(m.c.cancelMaxNs.Load()),
		StallEvents:      m.c.stallEvents.Load(),
	}
	if n := out.CancelObserved; n > 0 {
		out.CancelLatencyAvg = time.Duration(m.c.cancelNs.Load() / n)
	}
	return out
}
