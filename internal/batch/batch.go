// Package batch is the concurrent batch-analysis engine: a bounded
// worker pool that runs independent analysis jobs with per-job
// deadlines, panic isolation, a digest-keyed result cache, and
// deterministic in-order result emission.
//
// The engine is deliberately byte-oriented: a Job produces a serialized
// result ([]byte, typically JSON), which is what the cache stores and
// what Run hands back. That keeps the pool generic over workloads (the
// evaluation tables, `sierra -batch`, future corpora) while making the
// cache trivially content-addressed.
//
// Determinism guarantee: Run returns results indexed by input position,
// and OnResult fires in input order regardless of completion order —
// job i's callback never precedes job i-1's. A consumer that renders
// results as it receives them therefore produces byte-identical output
// for any worker count.
//
// Cancellation contract: jobs receive a context that is done when the
// per-job timeout elapses or the whole run is cancelled. Cooperative —
// the SIERRA pipeline polls it at its expensive loop boundaries (the
// pointer-analysis worklist, the SHBG closure rounds, the
// symbolic-execution path loop; see core.AnalyzeContext), so a stuck
// app times out cleanly with a partial-result verdict. A job that
// ignores its context occupies its worker until it returns; it cannot
// stall other workers or the emission of earlier results.
package batch

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"sierra/internal/obs"
	"sierra/internal/obs/eventlog"
)

// Status classifies one job's outcome.
type Status string

const (
	// StatusOK: the job completed and its value was computed fresh.
	StatusOK Status = "ok"
	// StatusCached: the value came from the result cache; the job's Fn
	// never ran.
	StatusCached Status = "cached"
	// StatusFailed: Fn returned an error.
	StatusFailed Status = "failed"
	// StatusPanic: Fn panicked; the panic was recovered and recorded,
	// the process and the other jobs are unaffected.
	StatusPanic Status = "panic"
	// StatusTimeout: the per-job deadline elapsed. Value, when non-nil,
	// is the partial result the job produced before bailing.
	StatusTimeout Status = "timeout"
	// StatusCanceled: the whole run's context was cancelled before or
	// while the job ran.
	StatusCanceled Status = "canceled"
)

// Job is one unit of batch work.
type Job struct {
	// Name identifies the job in results, logs and events.
	Name string
	// KeyFn, when non-nil, returns the job's cache key — conventionally
	// Key(appDigest, optionsFingerprint...). It runs on the worker
	// before Fn; when the configured cache holds the key, Fn is skipped
	// entirely (StatusCached). A KeyFn error disables caching for the
	// job but does not fail it.
	KeyFn func() (string, error)
	// Fn computes the job's serialized result. It must honor ctx to be
	// cancellable (see the package comment's cancellation contract) and
	// may return a partial value alongside a cancelled context.
	Fn func(ctx context.Context) ([]byte, error)
	// Cleanup, when non-nil, runs on the worker once the job settles —
	// whatever the status, cached and canceled included — so a producer
	// can recycle per-job resources (the streaming pipeline returns app
	// buffers to its pool here). It must not touch the Result.
	Cleanup func()
}

// Result is one job's outcome.
type Result struct {
	Name   string
	Status Status
	// Value is the serialized result (fresh, cached, or partial —
	// see Status).
	Value []byte
	// Err carries the failure message for StatusFailed.
	Err string
	// Panic carries the recovered panic value and stack for StatusPanic.
	Panic string
	// Latency is the job's wall-clock time on its worker (zero for jobs
	// never dispatched).
	Latency time.Duration
}

// Options configures a Run.
type Options struct {
	// Workers bounds concurrency (0 = GOMAXPROCS).
	Workers int
	// Timeout is the per-job deadline (0 = none).
	Timeout time.Duration
	// Cache, when non-nil, is consulted before and populated after each
	// keyed job (see Job.KeyFn).
	Cache Cache
	// Obs, when non-nil, receives the engine's counters — batch.jobs,
	// per-status batch.<status> counts, batch.cache_hits/_misses, and
	// the batch.job_duration_ms histogram. Per-result values are
	// recorded live as each job completes, before OnResult sees it (the
	// `-debug-addr` /metrics endpoint reads them mid-run); totals are
	// identical to a post-hoc accounting.
	Obs *obs.Trace
	// Events, when non-nil, receives the engine's flight-recorder
	// events: job_start when a worker picks a job up, job_end when it
	// completes (status, cache hit/miss, digest, duration). Emitted
	// live from the workers, so the stream interleaves in completion
	// order, not input order.
	Events *eventlog.Recorder
	// Tracker, when non-nil, is live progress accounting: begun at Run
	// entry, updated per completion, readable concurrently via
	// Tracker.Snapshot (the /progress endpoint).
	Tracker *Tracker
	// OnResult, when non-nil, observes every result in input order as
	// the completed prefix grows (job i is reported only after jobs
	// 0..i-1). Called from the Run goroutine, never concurrently.
	OnResult func(index int, r Result)
	// Prefetch bounds the producer→worker queue in RunSource (0 =
	// 2×workers). A lazy source is never more than this many jobs ahead
	// of the pool — the engine's backpressure / peak-RSS knob.
	Prefetch int
}

// runJob executes one job on the calling worker: cache probe, deadline,
// panic isolation, status classification, flight-recorder emission.
func runJob(ctx context.Context, index int, j Job, o Options) (r Result) {
	r = Result{Name: j.Name}
	start := time.Now()
	var digest, cacheOutcome string
	defer func() {
		r.Latency = time.Since(start)
		if o.Events != nil {
			e := eventlog.Event{Type: "job_end", Job: j.Name, Index: index,
				Status: string(r.Status), Digest: digest, Cache: cacheOutcome,
				DurMS: float64(r.Latency) / 1e6}
			switch {
			case r.Err != "":
				e.Err = r.Err
			case r.Panic != "":
				e.Err = firstLine(r.Panic)
			}
			o.Events.Emit(e)
		}
	}()
	if ctx.Err() != nil {
		r.Status = StatusCanceled
		return r
	}
	o.Events.Emit(eventlog.Event{Type: "job_start", Job: j.Name, Index: index})

	var key string
	if j.KeyFn != nil && (o.Cache != nil || o.Events != nil) {
		if k, err := j.KeyFn(); err == nil {
			key = k
			digest = keyDigest(k)
		}
	}
	if key != "" && o.Cache != nil {
		if v, ok := o.Cache.Get(key); ok {
			o.Obs.Count("batch.cache_hits", 1)
			cacheOutcome = "hit"
			r.Status = StatusCached
			r.Value = v
			return r
		}
		o.Obs.Count("batch.cache_misses", 1)
		cacheOutcome = "miss"
	}

	jctx := ctx
	if o.Timeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, o.Timeout)
		defer cancel()
	}
	value, err, panicked := safeRun(jctx, j.Fn)
	switch {
	case panicked != "":
		r.Status = StatusPanic
		r.Panic = panicked
	case ctx.Err() != nil:
		r.Status = StatusCanceled
		r.Value = value
	case jctx.Err() != nil:
		r.Status = StatusTimeout
		r.Value = value // partial result, when the job produced one
	case err != nil:
		r.Status = StatusFailed
		r.Err = err.Error()
	default:
		r.Status = StatusOK
		r.Value = value
		if key != "" && o.Cache != nil {
			o.Cache.Put(key, value)
		}
	}
	return r
}

// keyDigest extracts the content-digest component of a cache key built
// by Key (epoch|digest|options...), falling back to the whole key for
// foreign formats.
func keyDigest(key string) string {
	parts := strings.SplitN(key, "|", 3)
	if len(parts) >= 2 {
		return parts[1]
	}
	return key
}

// firstLine truncates a multi-line message (a recovered panic with its
// stack) to its headline for event streams.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// safeRun invokes fn with panic isolation: a panicking job becomes a
// recorded failure, not a dead process.
func safeRun(ctx context.Context, fn func(context.Context) ([]byte, error)) (v []byte, err error, panicked string) {
	defer func() {
		if p := recover(); p != nil {
			panicked = fmt.Sprintf("%v\n%s", p, debug.Stack())
		}
	}()
	v, err = fn(ctx)
	return v, err, ""
}
