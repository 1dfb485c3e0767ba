// Command evaluate regenerates the paper's evaluation tables (§6):
//
//	evaluate -table 2          # dataset metadata (Table 2)
//	evaluate -table 3          # effectiveness on the 20-app dataset
//	evaluate -table 4          # per-stage timings
//	evaluate -table 5          # 174-app dataset medians
//	evaluate -table all        # everything
//
// Table 3's EventRacer column needs the dynamic baseline; pass -dynamic
// to run it (a few schedules per app).
//
// Per-app measurements fan out across a bounded worker pool (-jobs,
// default GOMAXPROCS); results are emitted in input order, so tables
// are byte-identical to a sequential run for any worker count. With
// -cache-dir, results are cached by app digest + options fingerprint
// and a re-run of an unchanged corpus is near-free.
//
// Live telemetry (see README.md "Live telemetry"): -events-out streams
// sierra-events/1 JSONL flight-recorder events and -debug-addr serves
// /metrics, /progress, /events, /healthz, and /debug/pprof while the
// evaluation runs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"sierra/internal/batch"
	"sierra/internal/corpus"
	"sierra/internal/metrics"
	"sierra/internal/obs"
	"sierra/internal/obs/eventlog"
	"sierra/internal/obs/export"
	"sierra/internal/pointer"
)

func main() {
	var (
		table      = flag.String("table", "all", "which table to regenerate: 2 | 3 | 4 | 5 | all")
		dynamic    = flag.Bool("dynamic", true, "run the EventRacer baseline for Table 3")
		schedules  = flag.Int("schedules", 5, "dynamic schedules per app")
		events     = flag.Int("events", 40, "events per dynamic schedule")
		nFDroid    = flag.Int("fdroid-count", corpus.FDroidCount, "how many generated apps for Table 5")
		quiet      = flag.Bool("q", false, "suppress progress output")
		jobs       = flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent analysis workers")
		jobTimeout = flag.Duration("job-timeout", 0, "per-app analysis deadline (0 = none); a timed-out app yields a partial row")
		cacheDir   = flag.String("cache-dir", "", "cache analysis results in this directory, keyed by app digest + options")
		ptaSolver  = flag.String("pta-solver", "delta", "points-to fixpoint solver: delta | exhaustive (identical tables; delta is faster)")
		refPaths   = flag.Int("refute-max-paths", 5000, "refutation path budget per query (the paper's 5,000)")
		refDepth   = flag.Int("refute-max-depth", 6, "refutation call-inlining depth bound (the paper's 6)")
		benchJSON  = flag.String("bench-json", "", "write per-stage timings + effort counters for the 20-app dataset as JSON to this file and exit (e.g. BENCH_sierra.json)")
		incrBench  = flag.String("incr-bench", "", "write the incremental lane (cold vs warm one-method skeleton-visible edit) as JSON to this file and exit (e.g. BENCH_incremental.json)")
		streamCfg  = flag.String("stream", "", "run the fused streaming pipeline over this scenario config and print its verdict table (see corpusgen -list-scenarios)")
		streamOut  = flag.String("stream-bench", "", "with -stream CONFIG: measure fused vs materialized throughput and write sierra-stream-bench/v1 JSON to this file (e.g. BENCH_streaming.json)")
		genJobs    = flag.Int("gen-jobs", 0, "generation workers for -stream (0 = GOMAXPROCS; the admitted stream is identical at any count)")
		incrIters  = flag.Int("incr-iters", 5, "measurement iterations per side for -incr-bench")
		incrGroups = flag.Int("incr-groups", 24, "listener-trio groups in the generated app -incr-bench edits")
		eventsOut  = flag.String("events-out", "", "stream sierra-events/1 flight-recorder events as JSONL to this file (-events is taken by the dynamic baseline)")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /progress, /events, /healthz, and /debug/pprof on this address while the evaluation runs")
		pprofCPU   = flag.String("pprof-cpu", "", "write a CPU profile of the evaluation to this file")
		pprofMem   = flag.String("pprof-mem", "", "write a heap profile after the evaluation to this file")
	)
	flag.Parse()

	solver, err := pointer.ParseSolver(*ptaSolver)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evaluate: -pta-solver:", err)
		os.Exit(1)
	}

	if *pprofCPU != "" {
		f, err := os.Create(*pprofCPU)
		if err != nil {
			fmt.Fprintln(os.Stderr, "evaluate:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "evaluate:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *pprofMem != "" {
		defer func() {
			f, err := os.Create(*pprofMem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "evaluate:", err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "evaluate:", err)
			}
		}()
	}

	bopts := metrics.BatchOptions{Jobs: *jobs, JobTimeout: *jobTimeout}
	if *cacheDir != "" {
		c, err := batch.NewDirCache(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "evaluate: -cache-dir:", err)
			os.Exit(1)
		}
		bopts.Cache = c
	}

	// Live telemetry (shared with cmd/sierra; see README.md "Live
	// telemetry"): a flight recorder behind -events-out / -debug-addr,
	// a progress tracker the batch engine updates, and the debug server.
	var rec *eventlog.Recorder
	if *eventsOut != "" || *debugAddr != "" {
		var sink io.Writer
		if *eventsOut != "" {
			f, err := os.Create(*eventsOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "evaluate: -events-out:", err)
				os.Exit(1)
			}
			defer f.Close()
			sink = f
		}
		rec = eventlog.New(sink, eventlog.DefaultRingCap)
		bopts.Events = rec
		bopts.Tracker = &batch.Tracker{}
	}
	defer rec.DumpOnPanic(os.Stderr)
	if *debugAddr != "" {
		if bopts.Obs == nil {
			bopts.Obs = obs.New("evaluate")
		}
		srv, err := export.Serve(*debugAddr, export.Options{
			Trace:    bopts.Obs,
			Events:   rec,
			Progress: func() any { return bopts.Tracker.Snapshot() },
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "evaluate: -debug-addr:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "evaluate: debug server on http://%s\n", srv.Addr())
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if rec != nil {
		stop := rec.NotifySignals(os.Stderr, cancel)
		defer stop()
		rec.Emit(eventlog.Event{Type: "run_start", Fields: map[string]any{
			"table":   *table,
			"jobs":    *jobs,
			"solver":  *ptaSolver,
			"dynamic": *dynamic,
			"cache":   *cacheDir != "",
			"git_sha": gitSHA(),
		}})
		defer func() {
			rec.Emit(eventlog.Event{Type: "run_end",
				Fields: map[string]any{"progress": bopts.Tracker.Snapshot()}})
			rec.Flush()
		}()
	}

	if *benchJSON != "" {
		if err := writeBenchJSON(ctx, *benchJSON, *quiet, solver, bopts); err != nil {
			fmt.Fprintln(os.Stderr, "evaluate:", err)
			os.Exit(1)
		}
		return
	}
	if *incrBench != "" {
		if err := runIncrBench(*incrBench, *incrIters, *incrGroups, *quiet); err != nil {
			fmt.Fprintln(os.Stderr, "evaluate:", err)
			os.Exit(1)
		}
		return
	}
	if *streamOut != "" && *streamCfg == "" {
		fmt.Fprintln(os.Stderr, "evaluate: -stream-bench needs -stream CONFIG")
		os.Exit(1)
	}
	if *streamCfg != "" {
		so := streamOpts{
			solver:   solver,
			refPaths: *refPaths,
			refDepth: *refDepth,
			jobs:     *jobs,
			genJobs:  *genJobs,
			quiet:    *quiet,
		}
		if so.genJobs <= 0 {
			so.genJobs = runtime.GOMAXPROCS(0)
		}
		var err error
		if *streamOut != "" {
			err = runStreamBench(ctx, *streamCfg, *streamOut, so)
		} else {
			err = runStreamEval(ctx, *streamCfg, so)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "evaluate:", err)
			os.Exit(1)
		}
		return
	}

	opts := metrics.Options{
		WithDynamic:       *dynamic,
		Schedules:         *schedules,
		EventsPerSchedule: *events,
		Solver:            solver,
		RefuteMaxPaths:    *refPaths,
		RefuteMaxDepth:    *refDepth,
	}

	progress := func(total int) func(int, batch.Result) {
		if *quiet {
			return nil
		}
		return func(i int, r batch.Result) {
			fmt.Fprintf(os.Stderr, "[%2d/%d] %s (%s)\n", i+1, total, r.Name, r.Status)
		}
	}

	want := func(t string) bool { return *table == "all" || *table == t }

	if want("2") {
		fmt.Println(metrics.FormatTable2())
	}

	var named []metrics.Row
	if want("3") || want("4") {
		rows := corpus.PaperRows()
		b := bopts
		b.Progress = progress(len(rows))
		named, _ = metrics.EvaluateNamedBatch(ctx, rows, opts, b)
	}
	if want("3") {
		fmt.Println(metrics.FormatTable3(named))
	}
	if want("4") {
		fmt.Println(metrics.FormatTable4(named))
	}

	if want("5") {
		b := bopts
		if !*quiet {
			b.Progress = func(i int, r batch.Result) {
				if i%25 == 0 {
					fmt.Fprintf(os.Stderr, "[fdroid %d/%d]\n", i, *nFDroid)
				}
			}
		}
		rows, sizes, _ := metrics.EvaluateFDroidBatch(ctx, *nFDroid,
			metrics.Options{Solver: solver, RefuteMaxPaths: *refPaths, RefuteMaxDepth: *refDepth}, b)
		fmt.Println(metrics.FormatTable5(rows, sizes))
	}
}

// benchReport is the -bench-json schema (sierra-bench/v1): one
// static-pipeline measurement per 20-app-dataset member plus the
// per-column median, batch wall-clock throughput, and cache
// effectiveness. Rows carry the Table 3/4 columns and the observability
// effort counters, so CI can track the perf trajectory from one
// artifact.
type benchReport struct {
	Schema string `json:"schema"`
	// GitSHA is the commit the binary was built from (empty when the
	// working tree is not a git checkout), so a BENCH_*.json artifact
	// and the trajectory entries benchdiff.sh appends are attributable
	// to a revision.
	GitSHA string        `json:"git_sha,omitempty"`
	Apps   []metrics.Row `json:"apps"`
	Median metrics.Row   `json:"median"`
	// Jobs is the worker count the batch ran with.
	Jobs int `json:"jobs"`
	// WallSeconds / AppsPerSecond measure end-to-end batch throughput
	// (unlike the per-row timings, these shrink as -jobs grows).
	WallSeconds   float64 `json:"wall_seconds"`
	AppsPerSecond float64 `json:"apps_per_second"`
	// Cache effectiveness for the run (hits + misses == apps when a
	// cache is configured; all zero otherwise).
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// gitSHA resolves the checkout's HEAD commit, empty when git or the
// repository is unavailable (the artifact is then simply unattributed).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// writeBenchJSON measures the 20-app dataset (static pipeline only — no
// dynamic baseline, so the artifact is deterministic and fast) and
// writes the benchReport.
func writeBenchJSON(ctx context.Context, path string, quiet bool, solver pointer.Solver, bopts metrics.BatchOptions) error {
	rows := corpus.PaperRows()
	if bopts.Jobs <= 0 {
		bopts.Jobs = runtime.GOMAXPROCS(0)
	}
	// Keep an Obs wired by -debug-addr (the server holds the pointer);
	// otherwise make one for the cache counters the report embeds.
	if bopts.Obs == nil {
		bopts.Obs = obs.New("bench")
	}
	if !quiet {
		bopts.Progress = func(i int, r batch.Result) {
			fmt.Fprintf(os.Stderr, "[%2d/%d] %s (%s)\n", i+1, len(rows), r.Name, r.Status)
		}
	}
	start := time.Now()
	measured, results := metrics.EvaluateNamedBatch(ctx, rows, metrics.Options{Solver: solver}, bopts)
	sum := batch.Summarize(results, time.Since(start))

	report := benchReport{
		Schema:        "sierra-bench/v1",
		GitSHA:        gitSHA(),
		Apps:          measured,
		Median:        metrics.MedianRow(measured),
		Jobs:          bopts.Jobs,
		WallSeconds:   sum.WallSecs,
		AppsPerSecond: sum.JobsPerSec,
		CacheHits:     bopts.Obs.Counter("batch.cache_hits"),
		CacheMisses:   bopts.Obs.Counter("batch.cache_misses"),
		CacheHitRate:  sum.CacheHitRate,
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
