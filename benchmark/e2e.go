package main

import (
	"fmt"
	"net"
	"net/http"
	"time"
)

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int // samples behind the value (0 = not a sample statistic)
}

// segments is how many fresh daemon pairs one run drives, each for an equal
// share of the measured time. progressd never prunes finished sessions, so
// its heap grows with every query and a handful of ever-longer GC cycles
// decide a long single-daemon run; several short lives with the same growth
// curve repeat far better, keep peak memory bounded, and give setup_s two
// samples per segment. Latencies are pooled over segments; rates and RSS are
// the median of the per-segment values.
const segments = 4

// streamLen is the number of queries generated per run: more than any
// workload gets through in a run on this machine, so the stream never wraps
// (wrapping would be harmless, the daemon caches nothing).
const streamLen = 200000

// tally counts correctness checks and keeps the first few failures.
type tally struct {
	attempted int
	failed    int
	failures  []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.failures = append(t.failures, o.failures...)
}

// e2eResult is one untraced end-to-end run of one workload.
type e2eResult struct {
	tally
	endToEnd []metric
	perClass []metric // client.class.<class>_p50_ms
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext: (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}}
}

// twinArgs turns sampling off: the twin daemon publishes only the final
// event of each query.
var twinArgs = []string{"-sample-interval", "24h"}

// runE2E measures one workload end to end against a real progressd and its
// unmonitored twin: per segment two daemon starts, a warm-up and the
// closed-loop load for dur/segments, then validation of every recorded
// stream, of both daemons, against want. Every metric but
// monitor_overhead_ratio describes the monitored daemon alone.
func runE2E(bin string, w *workload, stream []query, want map[string]expectation, dur time.Duration) (*e2eResult, error) {
	client := newHTTPClient()
	defer client.CloseIdleConnections()

	res := &e2eResult{}
	var setups, qps, rss, lat, first, blind []float64
	var monitoredNs, twinNs float64 // over pairs both daemons answered correctly
	byClass := map[string][]float64{}
	offset := 0
	for s := 0; s < segments; s++ {
		d, err := startDaemon(bin, w.daemonArgs, client)
		if err != nil {
			return nil, err
		}
		twin, err := startDaemon(bin, append(append([]string(nil), w.daemonArgs...), twinArgs...), client)
		if err != nil {
			d.stop()
			return nil, err
		}
		load, err := runLoad(client, d, twin, w, stream, offset, dur/segments)
		client.CloseIdleConnections()
		d.stop()
		twin.stop()
		if err != nil {
			return nil, fmt.Errorf("%w\nprogressd log:\n%s\ntwin log:\n%s", err, d.log.String(), twin.log.String())
		}
		setups = append(setups, d.setup.Seconds(), twin.setup.Seconds())
		rss = append(rss, load.rssMB)
		var ok, busyNs float64
		for i, r := range load.monitored {
			t := load.twin[i]
			res.attempted += 2
			for who, rec := range [2]*queryRecord{r, t} {
				if rec.err == nil {
					rec.err = checkFrames(rec.frames, want[rec.q.SQL])
				}
				if rec.err != nil {
					res.fail("%s: %s: %v", [2]string{"monitored", "twin"}[who], rec.q.SQL, rec.err)
				}
			}
			if r.err != nil {
				continue
			}
			latMs := float64(r.latency()) / 1e6
			ok++
			busyNs += float64(r.latency())
			lat = append(lat, latMs)
			first = append(first, float64(r.frameAt[0])/1e6)
			blind = append(blind, r.blindFrac())
			byClass[r.q.Class] = append(byClass[r.q.Class], latMs)
			if t.err == nil {
				monitoredNs += float64(r.latency())
				twinNs += float64(t.latency())
			}
		}
		qps = append(qps, ratio(ok, busyNs/1e9))
		offset += warmupPairs + len(load.monitored)
	}

	n := len(lat)
	ms := newMetricSet(endToEndDefs())
	ms.set("setup_s", median(setups), len(setups))
	ms.set("query_p50_ms", percentile(lat, 50), n)
	ms.set("query_p95_ms", percentile(lat, 95), n)
	ms.set("queries_per_s", median(qps), n)
	ms.set("first_progress_p50_ms", median(first), n)
	ms.set("blind_frac_p50", median(blind), n)
	ms.set("monitor_overhead_ratio", ratio(monitoredNs, twinNs), n)
	ms.set("peak_rss_mb", median(rss), len(rss))
	var err error
	if res.endToEnd, err = ms.list(); err != nil {
		return nil, err
	}
	for _, c := range classNames {
		res.perClass = append(res.perClass, metric{Name: "client.class." + c + "_p50_ms", Value: median(byClass[c]), N: len(byClass[c])})
	}
	return res, nil
}
