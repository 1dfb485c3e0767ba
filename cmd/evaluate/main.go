// Command evaluate regenerates the paper's evaluation tables (§6):
//
//	evaluate -table 2          # dataset metadata (Table 2)
//	evaluate -table 3          # effectiveness on the 20-app dataset
//	evaluate -table 4          # per-stage timings
//	evaluate -table 5          # 174-app dataset medians
//	evaluate -table all        # everything
//
// Table 3's EventRacer column needs the dynamic baseline, which runs
// (a few schedules per app) whenever Table 3 is printed; -dynamic=false
// skips it. Table 4 alone never runs it.
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
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"

	"sierra/internal/batch"
	"sierra/internal/corpus"
	"sierra/internal/metrics"
	"sierra/internal/obs"
	"sierra/internal/obs/eventlog"
	"sierra/internal/obs/export"
	"sierra/internal/symexec"
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
		refPaths   = flag.Int("refute-max-paths", symexec.DefaultMaxPaths, "refutation path budget per query (the default is the paper's)")
		refDepth   = flag.Int("refute-max-depth", symexec.DefaultMaxDepth, "refutation call-inlining depth bound (the default is the paper's)")
		eventsOut  = flag.String("events-out", "", "stream sierra-events/1 flight-recorder events as JSONL to this file (-events is taken by the dynamic baseline)")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /progress, /events, /healthz, and /debug/pprof on this address while the evaluation runs")
		pprofCPU   = flag.String("pprof-cpu", "", "write a CPU profile of the evaluation to this file")
		pprofMem   = flag.String("pprof-mem", "", "write a heap profile after the evaluation to this file")
	)
	flag.Parse()

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
	want := func(t string) bool { return *table == "all" || *table == t }
	// The dynamic baseline feeds only Table 3's EventRacer column.
	withDynamic := *dynamic && want("3")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if rec != nil {
		stop := rec.NotifySignals(os.Stderr, cancel)
		defer stop()
		rec.Emit(eventlog.Event{Type: "run_start", Fields: map[string]any{
			"table":   *table,
			"jobs":    *jobs,
			"dynamic": withDynamic,
			"cache":   *cacheDir != "",
			"git_sha": gitSHA(),
		}})
		defer func() {
			rec.Emit(eventlog.Event{Type: "run_end",
				Fields: map[string]any{"progress": bopts.Tracker.Snapshot()}})
			rec.Flush()
		}()
	}

	opts := metrics.Options{
		WithDynamic:       withDynamic,
		Schedules:         *schedules,
		EventsPerSchedule: *events,
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
			metrics.Options{RefuteMaxPaths: *refPaths, RefuteMaxDepth: *refDepth}, b)
		fmt.Println(metrics.FormatTable5(rows, sizes))
	}
}

// gitSHA resolves the checkout's HEAD commit for run_start, empty when
// git or the repository is unavailable.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
