package metrics

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"sierra/internal/apk"
	"sierra/internal/batch"
	"sierra/internal/corpus"
	"sierra/internal/obs"
	"sierra/internal/obs/eventlog"
)

// BatchOptions configures the concurrent evaluation runners: how the
// per-app measurement jobs fan out across internal/batch workers.
type BatchOptions struct {
	// Jobs bounds worker concurrency (0 = GOMAXPROCS). Jobs == 1
	// reproduces the sequential evaluation exactly — see the
	// determinism guarantee on batch.Run.
	Jobs int
	// JobTimeout is the per-app deadline (0 = none); a timed-out app
	// yields the partial Row its interrupted pipeline produced.
	JobTimeout time.Duration
	// Cache, when non-nil, is keyed by app digest + options fingerprint:
	// re-evaluating an unchanged corpus becomes near-free.
	Cache batch.Cache
	// Obs, when non-nil, receives the engine counters (batch.*) and each
	// executed app's absorbed effort counters.
	Obs *obs.Trace
	// Events, when non-nil, receives the engine's job_start/job_end
	// flight-recorder events (see internal/obs/eventlog).
	Events *eventlog.Recorder
	// Tracker, when non-nil, is updated live as jobs complete — the
	// `-debug-addr` /progress source.
	Tracker *batch.Tracker
	// Progress, when non-nil, observes results in input order.
	Progress func(index int, r batch.Result)
}

// fingerprint lists every Options knob that influences a Row, for the
// cache key: the dynamic baseline's knobs and the analysis options' Key.
func fingerprint(opts Options) []string {
	return []string{
		"row",
		fmt.Sprintf("dynamic=%t", opts.WithDynamic),
		fmt.Sprintf("schedules=%d", opts.Schedules),
		fmt.Sprintf("events=%d", opts.EventsPerSchedule),
		opts.coreOptions().Key(),
	}
}

// EvaluateNamedBatch measures the given named-dataset rows concurrently
// and returns their Rows in input order, plus the raw batch results
// (status, latency, failure records) aligned with them. A job that
// failed or timed out without a value yields a zero Row carrying only
// the app name.
func EvaluateNamedBatch(ctx context.Context, rows []corpus.PaperRow, opts Options, b BatchOptions) ([]Row, []batch.Result) {
	opts.Obs = b.Obs
	jobs := make([]batch.Job, len(rows))
	for i := range rows {
		pr := rows[i]
		jobs[i] = batch.Job{
			Name: pr.Name,
			KeyFn: func() (string, error) {
				app, _ := corpus.NamedApp(pr)
				d, err := batch.AppDigest(app)
				if err != nil {
					return "", err
				}
				return batch.Key(d, fingerprint(opts)...), nil
			},
			Fn: func(jctx context.Context) ([]byte, error) {
				row := EvaluateAppContext(jctx, pr.Name, func() (*apk.App, *corpus.GroundTruth) {
					return corpus.NamedApp(pr)
				}, opts)
				return json.Marshal(row)
			},
		}
	}
	results := batch.Run(ctx, jobs, batch.Options{
		Workers:  b.Jobs,
		Timeout:  b.JobTimeout,
		Cache:    b.Cache,
		Obs:      b.Obs,
		Events:   b.Events,
		Tracker:  b.Tracker,
		OnResult: b.Progress,
	})
	out := make([]Row, len(rows))
	for i, r := range results {
		out[i] = decodeRow(r, rows[i].Name)
	}
	return out, results
}

// fdroidPayload is the serialized result of one generated-dataset job:
// the measured Row plus the model's bytecode size (Table 5's size
// column).
type fdroidPayload struct {
	Row  Row `json:"row"`
	Size int `json:"size"`
}

// EvaluateFDroidBatch measures the first n generated-dataset apps
// concurrently, returning Rows and bytecode sizes in input order plus
// the raw batch results.
func EvaluateFDroidBatch(ctx context.Context, n int, opts Options, b BatchOptions) ([]Row, []int, []batch.Result) {
	opts.Obs = b.Obs
	jobs := make([]batch.Job, n)
	for i := 0; i < n; i++ {
		i := i
		name := corpus.FDroidRow(i).Name
		jobs[i] = batch.Job{
			Name: name,
			KeyFn: func() (string, error) {
				app, _ := corpus.FDroidApp(i)
				d, err := batch.AppDigest(app)
				if err != nil {
					return "", err
				}
				return batch.Key(d, fingerprint(opts)...), nil
			},
			Fn: func(jctx context.Context) ([]byte, error) {
				row := EvaluateAppContext(jctx, name, func() (*apk.App, *corpus.GroundTruth) {
					return corpus.FDroidApp(i)
				}, opts)
				app, _ := corpus.FDroidApp(i)
				return json.Marshal(fdroidPayload{Row: row, Size: app.BytecodeSize()})
			},
		}
	}
	results := batch.Run(ctx, jobs, batch.Options{
		Workers:  b.Jobs,
		Timeout:  b.JobTimeout,
		Cache:    b.Cache,
		Obs:      b.Obs,
		Events:   b.Events,
		Tracker:  b.Tracker,
		OnResult: b.Progress,
	})
	rowsOut := make([]Row, n)
	sizes := make([]int, n)
	for i, r := range results {
		var p fdroidPayload
		if len(r.Value) > 0 && json.Unmarshal(r.Value, &p) == nil {
			rowsOut[i], sizes[i] = p.Row, p.Size
		} else {
			rowsOut[i] = Row{Name: corpus.FDroidRow(i).Name}
		}
	}
	return rowsOut, sizes, results
}

// decodeRow unmarshals a job's Row, falling back to a named zero Row
// for valueless failures.
func decodeRow(r batch.Result, name string) Row {
	var row Row
	if len(r.Value) > 0 && json.Unmarshal(r.Value, &row) == nil {
		return row
	}
	return Row{Name: name}
}
