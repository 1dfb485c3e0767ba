package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sierra/internal/obs"
	"sierra/internal/obs/eventlog"
	"sierra/internal/serve"
	"sierra/internal/symexec"
)

// runServe is the `sierra serve` subcommand: an always-on analysis
// daemon. POST /v1/apps submits an .app document, GET /v1/jobs/{id}
// polls it, GET /v1/reports/{digest} fetches the canonical report;
// /metrics, /progress, /events, /healthz, and /debug/pprof share the
// port. Resubmitted revisions of an already-analyzed app are absorbed
// incrementally when the fingerprint planner proves it safe (see
// internal/incremental), with reports byte-identical to a full run.
//
// SIGINT/SIGTERM drains gracefully: new submissions get 503, in-flight
// analyses finish, the flight-recorder sink is flushed, and the process
// exits 0. A second signal hard-cancels in-flight work; a third exits
// 130.
func runServe(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr           = fs.String("addr", "127.0.0.1:7433", "listen address ('host:0' picks a free port, printed on stderr)")
		workers        = fs.Int("workers", 0, "concurrent analyses (0 = GOMAXPROCS)")
		jobTimeout     = fs.Duration("job-timeout", 5*time.Minute, "per-analysis deadline (0 = none)")
		storeDir       = fs.String("store-dir", "", "persist reports in this sharded directory (empty = in-memory only)")
		cacheMaxBytes  = fs.Int64("cache-max-bytes", 0, "bound the persistent report store; a best-effort LRU sweep runs after each batch (0 = unbounded)")
		memEntries     = fs.Int("mem-cache-entries", 0, "in-memory report cache entry cap when -store-dir is unset (0 = default)")
		baselines      = fs.Int("baselines", 0, "warm incremental baselines kept per daemon (0 = default)")
		baselineMaxMem = fs.Int64("baseline-max-bytes", 0, "bound the warm baseline pool by estimated resident bytes, LRU-evicted (0 = entry cap only)")
		queueDepth     = fs.Int("queue-depth", 0, "accepted-but-unstarted submission bound (0 = default)")
		refuteJobs     = fs.Int("refute-jobs", 0, "per-pair refutation workers (0 = GOMAXPROCS; reports are byte-identical at any count)")
		refuteMaxPaths = fs.Int("refute-max-paths", symexec.DefaultMaxPaths, "refutation path budget per query (the default is the paper's)")
		refuteMaxDepth = fs.Int("refute-max-depth", symexec.DefaultMaxDepth, "refutation call-inlining depth bound (the default is the paper's)")
		events         = fs.String("events", "", "stream sierra-events/1 flight-recorder events as JSONL to this file")
	)
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "sierra serve: unexpected arguments %v\n", fs.Args())
		return 2
	}

	tr := obs.New("sierra-serve")
	var sink io.Writer
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sierra serve: -events:", err)
			return 1
		}
		defer f.Close()
		sink = f
	}
	rec := eventlog.New(sink, eventlog.DefaultRingCap)
	defer rec.DumpOnPanic(os.Stderr)

	s, err := serve.New(serve.Config{
		Workers:          *workers,
		JobTimeout:       *jobTimeout,
		RefuteJobs:       *refuteJobs,
		MaxPaths:         *refuteMaxPaths,
		MaxDepth:         *refuteMaxDepth,
		StoreDir:         *storeDir,
		CacheMaxBytes:    *cacheMaxBytes,
		MemCacheEntries:  *memEntries,
		Baselines:        *baselines,
		BaselineMaxBytes: *baselineMaxMem,
		QueueDepth:       *queueDepth,
		Obs:              tr,
		Events:           rec,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sierra serve:", err)
		return 1
	}
	if err := s.Start(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "sierra serve:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "sierra serve: listening on http://%s\n", s.Addr())
	rec.Emit(eventlog.Event{Type: "serve_start", Fields: map[string]any{"addr": s.Addr()}})

	// The drain stage runs in its own goroutine: Drain blocks until
	// in-flight analyses finish, and the signal loop must stay free to
	// escalate (second signal = ForceCancel, third = exit 130).
	done := make(chan struct{})
	stop := rec.NotifyDrain(os.Stderr,
		func() {
			go func() {
				s.Drain()
				s.Close()
				rec.Emit(eventlog.Event{Type: "serve_stop"})
				rec.Flush()
				close(done)
			}()
		},
		s.ForceCancel,
	)
	defer stop()

	<-done
	return 0
}
