package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sierra/internal/batch"
	"sierra/internal/core"
	"sierra/internal/obs"
	"sierra/internal/obs/eventlog"
	"sierra/internal/obs/export"
	"sierra/internal/stream"
)

// batchConfig carries the flag values that shape a -batch or -stream
// run. Exactly one of glob / streamCfg is set; everything else is
// shared, which is what keeps the two modes' outputs comparable.
type batchConfig struct {
	glob      string
	streamCfg string // scenario config path (-stream)
	genJobs   int    // generation workers (-stream)
	jobs      int
	timeout   time.Duration
	cacheDir  string
	policyID  string // the -policy flag value, as run_start reports it
	opts      core.Options
	stats     string
	events    string
	debugAddr string
	verdicts  string // TSV verdict artifact path
}

// runFields is the run_start event's analysis configuration, shared by
// the one-app and batch modes.
func runFields(policyID string, opts core.Options) map[string]any {
	return map[string]any{
		"policy":      policyID,
		"compare":     opts.CompareContexts,
		"refute":      !opts.SkipRefutation,
		"max_paths":   opts.Refuter.MaxPaths,
		"max_depth":   opts.Refuter.MaxDepth,
		"refute_jobs": opts.Refuter.Jobs,
	}
}

// appSummary is the cached per-file verdict: the headline numbers a
// corpus sweep wants, small enough to serialize per job. One schema
// with the streaming pipeline (stream.Summary) so -batch and -stream
// results are byte-comparable.
type appSummary = stream.Summary

// runBatch analyzes a corpus on the batch engine and prints one summary
// line per app in deterministic order. With cfg.glob the corpus is the
// matched .app files (materialized mode); with cfg.streamCfg it is
// generated on the fly from a scenario config and never touches disk
// (fused streaming mode). The exit code is 0 when every app produced a
// verdict (including cached and partial/timeout verdicts) and 1 when
// any job failed or panicked, or generation broke.
func runBatch(cfg batchConfig) int {
	// Flight recorder: the ring exists whenever anyone can look at it
	// (-events mirrors it to a JSONL file, -debug-addr serves its tail).
	var rec *eventlog.Recorder
	if cfg.events != "" || cfg.debugAddr != "" {
		var sink io.Writer
		if cfg.events != "" {
			f, err := os.Create(cfg.events)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sierra: -events:", err)
				return 1
			}
			defer f.Close()
			sink = f
		}
		rec = eventlog.New(sink, eventlog.DefaultRingCap)
	}
	defer rec.DumpOnPanic(os.Stderr)

	// Per-job pipeline observability (stage counters, histograms) is
	// absorbed into the shared trace only when someone consumes it; a
	// plain batch run keeps the jobs' zero-cost nil-trace path.
	liveObs := cfg.stats != "" || cfg.debugAddr != ""
	tr := obs.New("sierra:batch")
	var absorb *obs.Trace
	if liveObs {
		absorb = tr
	}

	fingerprint := []string{"report", cfg.opts.Key()}
	analyze := stream.Analyzer(cfg.opts, absorb)

	// Build the job source: a sorted glob of file-backed jobs, or the
	// fused generate→analyze stream.
	var src batch.Source
	total := -1
	fields := runFields(cfg.policyID, cfg.opts)
	fields["jobs"] = cfg.jobs
	fields["job_timeout"] = cfg.timeout.String()
	fields["cache"] = cfg.cacheDir != ""
	var streamSrc *stream.Source
	if cfg.streamCfg != "" {
		scfg, err := stream.LoadConfig(cfg.streamCfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sierra: -stream:", err)
			return 1
		}
		streamSrc = stream.NewSource(scfg, analyze, stream.SourceOptions{
			GenJobs:     cfg.genJobs,
			Fingerprint: fingerprint,
			Obs:         tr,
		})
		src = streamSrc
		fields["config"] = cfg.streamCfg
		fields["corpus"] = scfg.Name
		fields["mix"] = scfg.MixSummary()
		fields["gen_jobs"] = cfg.genJobs
		fields["apps_cap"] = scfg.Apps
		fields["tot_size"] = scfg.TotSize
	} else {
		files, err := filepath.Glob(cfg.glob)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sierra: -batch:", err)
			return 1
		}
		if len(files) == 0 {
			fmt.Fprintf(os.Stderr, "sierra: -batch %q matched no files\n", cfg.glob)
			return 1
		}
		sort.Strings(files)
		total = len(files)
		jobs := make([]batch.Job, len(files))
		for i := range files {
			path := files[i]
			jobs[i] = batch.Job{
				Name: path,
				KeyFn: func() (string, error) {
					raw, err := os.ReadFile(path)
					if err != nil {
						return "", err
					}
					return batch.Key(batch.RawDigest(raw), fingerprint...), nil
				},
				Fn: func(jctx context.Context) ([]byte, error) {
					raw, err := os.ReadFile(path)
					if err != nil {
						return nil, err
					}
					return analyze(jctx, path, raw)
				},
			}
		}
		src = batch.SliceSource(jobs)
		fields["glob"] = cfg.glob
		fields["files"] = len(files)
	}

	// The run is cancellable so the signal handler can wind it down as a
	// graceful cancellation after dumping the flight-recorder tail.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if rec != nil {
		stop := rec.NotifySignals(os.Stderr, cancel)
		defer stop()
	}

	tk := &batch.Tracker{}
	if cfg.debugAddr != "" {
		srv, err := export.Serve(cfg.debugAddr, export.Options{
			Trace:    tr,
			Events:   rec,
			Progress: func() any { return tk.Snapshot() },
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sierra: -debug-addr:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "sierra: debug server on http://%s\n", srv.Addr())
	}

	rec.Emit(eventlog.Event{Type: "run_start", Fields: fields})

	var verdictResults []batch.Result
	opts := batch.Options{
		Workers: cfg.jobs,
		Timeout: cfg.timeout,
		Obs:     tr,
		Events:  rec,
		Tracker: tk,
		OnResult: func(i int, r batch.Result) {
			printBatchLine(i, total, r)
			emitVerdict(rec, i, r)
		},
	}
	if cfg.cacheDir != "" {
		c, err := batch.NewDirCache(cfg.cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sierra: -cache-dir:", err)
			return 1
		}
		opts.Cache = c
	}

	start := time.Now()
	results, srcErr := batch.RunSource(ctx, src, opts)
	if streamSrc != nil {
		streamSrc.Stop()
	}
	verdictResults = results
	sum := batch.Summarize(results, time.Since(start))
	fmt.Println(sum.String())
	if srcErr != nil {
		fmt.Fprintln(os.Stderr, "sierra: stream source:", srcErr)
	}

	rec.Emit(eventlog.Event{Type: "run_end", Fields: map[string]any{
		"jobs":         sum.Jobs,
		"ok":           sum.OK,
		"cached":       sum.Cached,
		"failed":       sum.Failed,
		"panics":       sum.Panics,
		"timeouts":     sum.Timeouts,
		"canceled":     sum.Canceled,
		"wall_seconds": sum.WallSecs,
	}})
	if err := rec.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "sierra: flushing -events:", err)
		return 1
	}

	if cfg.verdicts != "" {
		if err := os.WriteFile(cfg.verdicts, stream.VerdictTable(verdictResults), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "sierra: writing -verdicts:", err)
			return 1
		}
	}

	if cfg.stats != "" {
		raw, err := tr.Snapshot().JSON()
		if err == nil {
			err = os.WriteFile(cfg.stats, raw, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "sierra: writing -stats:", err)
			return 1
		}
	}

	if sum.Failed > 0 || sum.Panics > 0 || srcErr != nil {
		return 1
	}
	return 0
}

// emitVerdict mirrors one finished job's headline numbers into the
// flight-recorder stream as a job_verdict event: replaying the JSONL
// reconstructs the per-app verdict tallies without the batch output.
func emitVerdict(rec *eventlog.Recorder, i int, r batch.Result) {
	if rec == nil {
		return
	}
	e := eventlog.Event{Type: "job_verdict", Job: r.Name, Index: i, Status: string(r.Status)}
	var s appSummary
	if len(r.Value) > 0 && json.Unmarshal(r.Value, &s) == nil {
		e.Fields = map[string]any{
			"app":         s.App,
			"harnesses":   s.Harnesses,
			"actions":     s.Actions,
			"hb_edges":    s.HBEdges,
			"racy_pairs":  s.RacyPairs,
			"races":       s.Races,
			"interrupted": s.Interrupted,
		}
		e.DurMS = s.TotalSeconds * 1e3
	}
	rec.Emit(e)
}

// printBatchLine renders one result. Lines arrive in input order (the
// engine's determinism guarantee), so the output reads like a
// sequential run regardless of -jobs. A streamed run's total is
// unknown while the source produces; total <= 0 renders as "?".
func printBatchLine(i, total int, r batch.Result) {
	den := "?"
	if total > 0 {
		den = fmt.Sprint(total)
	}
	switch r.Status {
	case batch.StatusOK, batch.StatusCached, batch.StatusTimeout:
		var s appSummary
		if err := json.Unmarshal(r.Value, &s); err != nil {
			fmt.Printf("[%3d/%s] %-40s %-8s (unreadable summary)\n", i+1, den, r.Name, r.Status)
			return
		}
		note := ""
		if s.Interrupted {
			note = " partial"
		}
		fmt.Printf("[%3d/%s] %-40s %-8s harnesses=%d actions=%d hb=%d racy=%d races=%d %.3fs%s\n",
			i+1, den, r.Name, r.Status, s.Harnesses, s.Actions, s.HBEdges,
			s.RacyPairs, s.Races, s.TotalSeconds, note)
	case batch.StatusPanic:
		first := r.Panic
		if nl := bytes.IndexByte([]byte(first), '\n'); nl >= 0 {
			first = first[:nl]
		}
		fmt.Printf("[%3d/%s] %-40s %-8s %s\n", i+1, den, r.Name, r.Status, first)
	default:
		fmt.Printf("[%3d/%s] %-40s %-8s %s\n", i+1, den, r.Name, r.Status, r.Err)
	}
}
