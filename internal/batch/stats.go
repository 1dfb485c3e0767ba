package batch

import (
	"fmt"
	"time"

	"sierra/internal/obs"
)

// recordResult publishes one completed job's counters to the engine
// trace as it lands — its status count and its wall time in the
// batch.job_duration_ms histogram — so a mid-run /metrics scrape sees
// the work done so far, and a caller's OnResult for the job already
// does. Counter totals and histograms are order-independent, so the
// final trace is the same for any worker count.
func recordResult(tr *obs.Trace, r Result) {
	if tr == nil {
		return
	}
	tr.Count("batch.jobs", 1)
	tr.Count("batch."+string(r.Status), 1)
	tr.Observe("batch.job_duration_ms", float64(r.Latency)/1e6)
}

// recordRun publishes a finished run's wall-clock and throughput
// gauges.
func recordRun(tr *obs.Trace, jobs int, wall time.Duration, workers int) {
	if tr == nil {
		return
	}
	tr.Gauge("batch.workers", float64(workers))
	tr.Gauge("batch.wall_ms", float64(wall.Milliseconds()))
	if secs := wall.Seconds(); secs > 0 {
		tr.Gauge("batch.jobs_per_sec", float64(jobs)/secs)
	}
}

// Summary aggregates one run's results for the trailer and the
// run_end event of `sierra -batch` and `sierra -stream`.
type Summary struct {
	Jobs     int     `json:"jobs"`
	OK       int     `json:"ok"`
	Cached   int     `json:"cached"`
	Failed   int     `json:"failed"`
	Panics   int     `json:"panics"`
	Timeouts int     `json:"timeouts"`
	Canceled int     `json:"canceled"`
	WallSecs float64 `json:"wall_seconds"`
	// JobsPerSec is end-to-end throughput: jobs (cached ones included)
	// over wall-clock.
	JobsPerSec float64 `json:"jobs_per_second"`
	// CacheHitRate is cached results over keyed jobs that consulted the
	// cache (0 when nothing did).
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// Summarize computes a Summary over results and the run's wall-clock.
func Summarize(results []Result, wall time.Duration) Summary {
	s := Summary{Jobs: len(results), WallSecs: wall.Seconds()}
	for _, r := range results {
		switch r.Status {
		case StatusOK:
			s.OK++
		case StatusCached:
			s.Cached++
		case StatusFailed:
			s.Failed++
		case StatusPanic:
			s.Panics++
		case StatusTimeout:
			s.Timeouts++
		case StatusCanceled:
			s.Canceled++
		}
	}
	if s.WallSecs > 0 {
		s.JobsPerSec = float64(s.Jobs) / s.WallSecs
	}
	if probed := s.Cached + s.OK; probed > 0 {
		s.CacheHitRate = float64(s.Cached) / float64(probed)
	}
	return s
}

// String renders the one-line trailer both CLIs print after a batch.
func (s Summary) String() string {
	return fmt.Sprintf("jobs=%d ok=%d cached=%d failed=%d panics=%d timeouts=%d canceled=%d wall=%.2fs throughput=%.2f/s cache-hit-rate=%.0f%%",
		s.Jobs, s.OK, s.Cached, s.Failed, s.Panics, s.Timeouts, s.Canceled,
		s.WallSecs, s.JobsPerSec, 100*s.CacheHitRate)
}
