// Command progressd is the progress-estimation query daemon: it serves a
// generated database over an HTTP/JSON API, running each submitted query as
// a managed session — admission under a concurrency limit, FIFO queueing
// with shedding, per-session deadlines — while each run samples itself and
// streams dne/pmax/safe progress estimates to clients over SSE.
//
// Quick start:
//
//	progressd -addr :8080 -sf 0.01
//	curl -s -X POST localhost:8080/query -d '{"sql":"SELECT COUNT(*) FROM lineitem"}'
//	curl -N localhost:8080/sessions/q000001/progress
//	curl -s localhost:8080/metrics
//
// Endpoints: POST /query, GET /sessions, GET /sessions/{id},
// DELETE /sessions/{id}, GET /sessions/{id}/progress (SSE), GET /metrics,
// GET /healthz.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	sqlprogress "sqlprogress"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		dataset    = flag.String("dataset", "tpch", "dataset to serve: tpch | skyserver")
		sf         = flag.Float64("sf", 0.01, "TPC-H scale factor")
		z          = flag.Float64("z", 2, "zipf skew parameter")
		seed       = flag.Int64("seed", 42, "generator seed")
		rows       = flag.Int64("rows", 20000, "skyserver photoobj rows")
		maxConc    = flag.Int("max-concurrent", 8, "concurrent query limit")
		maxQueue   = flag.Int("queue-depth", 64, "admission queue depth (shed beyond)")
		interval   = flag.Duration("sample-interval", 2*time.Millisecond, "progress sampling period")
		deadline   = flag.Duration("deadline", 0, "default per-query deadline (0 = none)")
		keepRows   = flag.Int("keep-rows", 50, "result rows retained per session")
		stallAfter = flag.Duration("stall-after", 0, "flag running sessions that publish no progress event for this long, and count each such gap in stall_events (0 = off; set it to several -sample-interval)")
		spill      = flag.Bool("spill", false, "serve the dataset from disk-backed paged storage through a shared buffer pool")
		poolFrames = flag.Int("pool-frames", 0, "buffer pool frames when spilled (0 = pager default)")
		readCost   = flag.Int64("read-cost", 0, "extra GetNext units charged per physical page read (0 = pure row accounting)")
	)
	flag.Parse()

	// With the tables spilled the live heap is a few MB, and the collector
	// paces against the live heap. A lineitem scan used to decode ≈ 60–72 MB
	// of rows and run ≈ 20 collections; now that it decodes only the columns
	// the statement reads it allocates 12–17 MB (a join2 39 MB) and still
	// runs 4–7 collections, against one every other query under the ballast.
	// Re-measured on that footing, six alternating 25 s pairs on paged, with
	// → without: query_p50_ms 23.1 → 27.5, query_p95_ms 40.5 → 55.3,
	// queries_per_s 49.7 → 39.8 (worse in 6 of 6), peak_rss_mb 159.5 → 141.4
	// (DESIGN §19). So it stays. The ballast is never written, so it costs
	// address space and no resident memory of its own; it moves the heap
	// goal from 2·live to 2·(live + 32 MiB), which only matters when live is
	// small, and the ≈ 18 MB of RSS is the garbage that goal lets stand.
	gcBallast := make([]byte, 32<<20)
	defer runtime.KeepAlive(gcBallast)

	log.SetPrefix("progressd: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	var db *sqlprogress.DB
	start := time.Now()
	switch *dataset {
	case "tpch":
		db = sqlprogress.OpenTPCH(*sf, *z, *seed)
	case "skyserver":
		db = sqlprogress.OpenSkyServer(*rows, *seed)
	default:
		log.Fatalf("unknown dataset %q (want tpch or skyserver)", *dataset)
	}
	log.Printf("generated %s dataset in %v (tables: %v)", *dataset, time.Since(start).Round(time.Millisecond), db.Tables())

	if *spill {
		dir, err := os.MkdirTemp("", "progressd-heap-")
		if err != nil {
			log.Fatal(err)
		}
		if err := db.SpillToDisk(dir, *poolFrames); err != nil {
			log.Fatal(err)
		}
		// The open heap-file descriptors keep the data readable; removing
		// the directory now means nothing is left behind even on SIGKILL.
		os.RemoveAll(dir)
		if *readCost > 0 {
			for _, t := range db.Tables() {
				if err := db.SetReadCost(t, *readCost); err != nil {
					log.Fatal(err)
				}
			}
		}
		log.Printf("spilled to paged storage: pool %d frames, read cost %d (progress events now carry pool counters)",
			db.BufferPool().Capacity(), *readCost)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving on http://%s (max-concurrent=%d queue-depth=%d)", ln.Addr(), *maxConc, *maxQueue)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := db.Serve(ctx, ln, sqlprogress.ServeOptions{
		MaxConcurrent:   *maxConc,
		MaxQueue:        *maxQueue,
		SampleInterval:  *interval,
		DefaultDeadline: *deadline,
		KeepRows:        *keepRows,
		StallAfter:      *stallAfter,
	}); err != nil {
		log.Fatal(err)
	}
	log.Printf("shut down: every session drained")
}
