package main

import (
	"fmt"
	"math/rand"
	"time"
)

// Every workload serves the same generated database; only the storage
// (memory or paged), the sampling interval and the query mix differ.
const (
	dataSF   = 0.02
	dataZ    = 1.0
	dataSeed = 42 // progressd's -seed default; the reference database must match it
)

// query is one generated request: the class it was drawn from (for the
// per-class breakdowns) and the SQL text, which is all the daemon receives.
type query struct {
	Class string
	SQL   string
}

// class is one parameterised query template.
type class struct {
	name   string
	weight int // occurrences per block of the stream
	gen    func(r *rand.Rand) string
}

// workload is one traffic mix plus the daemon configuration it runs against.
type workload struct {
	name string
	// why records the reason the workload exists: which layers it stresses
	// and which optimisations it is expected to expose or to ignore.
	why string
	// daemonArgs are progressd's flags beyond -addr.
	daemonArgs []string
	// sampleInterval, poolFrames and readCost mirror daemonArgs for the
	// in-process reference and traced replay.
	sampleInterval time.Duration
	poolFrames     int // 0 = memory-resident
	readCost       int64
	classes        []class
	// rssAfter is the number of measured queries of a segment after which
	// the monitored daemon's peak RSS is read (sized to be reached in every
	// segment). Sessions are retained forever, so RSS grows with the number of
	// queries served; reading it at a fixed count keeps a faster build from
	// looking like a memory regression in a time-bounded run.
	rssAfter int
}

// variantsPerClass is how many distinct parameterisations of each class a
// seed draws. The stream repeats them, which keeps the correctness
// reference (one in-process execution per distinct query) cheap while the
// daemon, which has no plan or result cache, does full work every time.
const variantsPerClass = 4

func pick[T any](r *rand.Rand, xs ...T) T { return xs[r.Intn(len(xs))] }

// The five analytic classes over lineitem/orders/customer. internal/exec
// does > 90 % of the work; four are batch-native and topk falls back to the
// row engine under its Sort/Top, so a gain for one protocol that costs the
// other shows in client.class.*.
//
// Parameters change the SQL text and the answer but, on purpose, hardly the
// work: each predicate's selectivity moves by a few percent of its input at
// most, so two seeds differ in which constants they send, not in how heavy
// their queries are.
var (
	scanagg = class{name: "scanagg", gen: func(r *rand.Rand) string {
		return fmt.Sprintf("SELECT l_shipmode, COUNT(*), SUM(l_quantity), AVG(l_extendedprice) FROM lineitem WHERE l_extendedprice > %d GROUP BY l_shipmode", 900+r.Intn(100))
	}}
	filtercount = class{name: "filtercount", gen: func(r *rand.Rand) string {
		lo := 1 + r.Intn(40)
		return fmt.Sprintf("SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_quantity >= %d AND l_quantity < %d", lo, lo+10)
	}}
	join2 = class{name: "join2", gen: func(r *rand.Rand) string {
		return fmt.Sprintf("SELECT COUNT(*), SUM(l_extendedprice) FROM orders, lineitem WHERE o_orderkey = l_orderkey AND o_totalprice > %d", 1000+r.Intn(100))
	}}
	join3 = class{name: "join3", gen: func(r *rand.Rand) string {
		return fmt.Sprintf("SELECT c_mktsegment, COUNT(*) FROM customer, orders, lineitem WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_extendedprice > %d GROUP BY c_mktsegment", 900+r.Intn(100))
	}}
	// The selective predicate keeps the sort input near a third of lineitem,
	// so join3 stays the slowest class; topk is here for its plan (Sort and
	// Top fall back to the row engine), not for its weight.
	topk = class{name: "topk", gen: func(r *rand.Rand) string {
		return fmt.Sprintf("SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_quantity > %d ORDER BY l_extendedprice DESC LIMIT 10", 24+r.Intn(5))
	}}
)

// The short classes: execution is a sliver, so parse, plan, admission and
// the HTTP/SSE round trips dominate.
var (
	lookup = class{name: "lookup", gen: func(r *rand.Rand) string {
		switch r.Intn(3) {
		case 0:
			return fmt.Sprintf("SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = %d", r.Intn(25))
		case 1:
			return fmt.Sprintf("SELECT s_name, s_acctbal FROM supplier WHERE s_nationkey = %d", r.Intn(25))
		default:
			return fmt.Sprintf("SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey AND r_regionkey = %d", r.Intn(5))
		}
	}}
	// Unfiltered on purpose: at the seed commit a LIMIT over a scan with a
	// pushed-down predicate keeps the scan's full-table lower bound, so
	// LB > total and final_estimate != 1 (see README, "Found while building").
	limit5 = class{name: "limit5", gen: func(r *rand.Rand) string {
		return "SELECT " + pick(r,
			"l_orderkey, l_quantity FROM lineitem", "l_partkey, l_shipmode, l_discount FROM lineitem", "* FROM lineitem",
			"o_orderkey, o_totalprice FROM orders", "* FROM orders", "c_name, c_acctbal FROM customer",
			"p_name, p_brand FROM part", "ps_partkey, ps_supplycost FROM partsupp") + " LIMIT 5"
	}}
	smallcount = class{name: "smallcount", gen: func(r *rand.Rand) string {
		if r.Intn(2) == 0 {
			return fmt.Sprintf("SELECT COUNT(*) FROM supplier WHERE s_acctbal > %d", r.Intn(5000))
		}
		return fmt.Sprintf("SELECT COUNT(*) FROM customer WHERE c_acctbal > %d", r.Intn(5000))
	}}
)

func weighted(c class, w int) class { c.weight = w; return c }

// The weights put each reported percentile in the middle of one class, where
// it moves with that class and not with the boundary between two: a quarter
// of the queries (filtercount) are faster than scanagg and a quarter slower,
// so p50 is scanagg's median; join3, the slowest class, is the top tenth, so
// p95 is join3's median.
var analyticClasses = []class{
	weighted(filtercount, 5), weighted(scanagg, 10), weighted(join2, 2), weighted(topk, 1), weighted(join3, 2),
}

var workloads = []workload{
	{
		name: "analytic",
		why:  "in-memory TPC-H scans, joins and top-k at 2 ms sampling: internal/exec does >90% of the work, batch-native and row-fallback plans side by side",
		daemonArgs: []string{
			"-sf", fmt.Sprint(dataSF), "-z", fmt.Sprint(dataZ),
		},
		sampleInterval: 2 * time.Millisecond,
		classes:        analyticClasses,
		rssAfter:       50,
	},
	{
		name: "short",
		why:  "thousands of sub-millisecond queries: parse, plan, admission, JSON and SSE open/close dominate and retained sessions drive RSS; executor changes should not move it",
		daemonArgs: []string{
			"-sf", fmt.Sprint(dataSF), "-z", fmt.Sprint(dataZ),
		},
		sampleInterval: 2 * time.Millisecond,
		classes:        []class{weighted(lookup, 10), weighted(limit5, 5), weighted(smallcount, 5)},
		rssAfter:       3000,
	},
	{
		name: "paged",
		why:  "same operators through a 2 MiB buffer pool: lineitem/orders scans flood CLOCK, small tables fit; only pool and heap-file changes should move it alone",
		daemonArgs: []string{
			"-sf", fmt.Sprint(dataSF), "-z", fmt.Sprint(dataZ), "-spill", "-pool-frames", "256", "-read-cost", "2",
		},
		sampleInterval: 2 * time.Millisecond,
		poolFrames:     256,
		readCost:       2,
		classes: []class{
			weighted(scanagg, 5), weighted(filtercount, 5), weighted(join2, 4), weighted(lookup, 3), weighted(smallcount, 3),
		},
		rssAfter: 40,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// classNames lists every class any workload uses, in a fixed order; the
// per-class metrics are reported for all of them on every workload (0 where
// a workload does not run the class) so the metric set is the same
// everywhere.
var classNames = []string{"scanagg", "filtercount", "join2", "join3", "topk", "lookup", "limit5", "smallcount"}

// stream generates the first n queries of the workload for a seed. It
// depends only on the seed and the class list.
//
// The stream is a sequence of blocks; each block holds every class exactly
// weight times in a seeded shuffle. A fixed composition per block (rather
// than independent weighted draws) keeps the share of slow classes the same
// in every run, which is what makes p95 repeatable.
func (w *workload) stream(seed int64, n int) []query {
	r := rand.New(rand.NewSource(seed))
	variants := make([][]string, len(w.classes))
	var block []int
	for ci, c := range w.classes {
		seen := map[string]bool{}
		for len(variants[ci]) < variantsPerClass {
			sql := c.gen(r)
			if !seen[sql] {
				seen[sql] = true
				variants[ci] = append(variants[ci], sql)
			}
		}
		for k := 0; k < c.weight; k++ {
			block = append(block, ci)
		}
	}
	out := make([]query, 0, n+len(block))
	for len(out) < n {
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, ci := range block {
			out = append(out, query{Class: w.classes[ci].name, SQL: variants[ci][r.Intn(variantsPerClass)]})
		}
	}
	return out[:n]
}
