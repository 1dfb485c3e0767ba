package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"sierra/internal/batch"
	"sierra/internal/core"
	"sierra/internal/obs"
	"sierra/internal/pointer"
	"sierra/internal/stream"
	"sierra/internal/symexec"
)

// streamBenchTarget is the acceptance floor: the fused pipeline (which
// pays for generation inline) must sustain at least this fraction of
// the throughput of analyzing the same corpus pre-materialized on disk.
const streamBenchTarget = 0.95

// streamOpts bundles the analysis knobs the streaming lanes share with
// the rest of evaluate.
type streamOpts struct {
	solver   pointer.Solver
	refPaths int
	refDepth int
	jobs     int
	genJobs  int
	quiet    bool
}

func (o streamOpts) coreOptions() core.Options {
	return core.Options{
		Refuter:   symexec.Config{MaxPaths: o.refPaths, MaxDepth: o.refDepth},
		PTASolver: o.solver,
	}
}

// laneStats is one throughput measurement in the stream-bench report.
type laneStats struct {
	Apps          int     `json:"apps"`
	WallSeconds   float64 `json:"wall_seconds"`
	AppsPerSecond float64 `json:"apps_per_second"`
	// RSSHighWater is the peak live heap (runtime.ReadMemStats
	// HeapAlloc) observed by a background sampler during the lane.
	RSSHighWater uint64 `json:"rss_high_water_bytes"`
	// QueuePeak is the deepest the bounded prefetch queue got
	// (batch.stream_queue_peak); zero for the disk lane, whose jobs are
	// a materialized slice.
	QueuePeak float64 `json:"queue_peak,omitempty"`
}

// streamBenchReport is the -stream-bench schema (sierra-stream-bench/v1):
// the fused-vs-materialized throughput comparison plus the invariants
// the streaming pipeline promises — bounded queue, bounded memory, and
// byte-identical verdict tables.
type streamBenchReport struct {
	Schema  string `json:"schema"`
	GitSHA  string `json:"git_sha,omitempty"`
	Config  string `json:"config"`
	Corpus  string `json:"corpus"`
	Mix     string `json:"mix"`
	Jobs    int    `json:"jobs"`
	GenJobs int    `json:"gen_jobs"`
	// CorpusBytes is the admitted stream's total size — bytes that never
	// touch disk in the stream lane.
	CorpusBytes int64     `json:"corpus_bytes"`
	Stream      laneStats `json:"stream"`
	Disk        laneStats `json:"disk"`
	// ThroughputRatio is stream apps/sec over disk apps/sec; the
	// acceptance floor is RatioTarget.
	ThroughputRatio float64 `json:"throughput_ratio"`
	RatioTarget     float64 `json:"ratio_target"`
	RatioOK         bool    `json:"ratio_ok"`
	// VerdictParity is the headline invariant: both lanes rendered
	// byte-identical verdict tables.
	VerdictParity bool `json:"verdict_parity"`
}

// rssSampler watches the live heap from a background goroutine; Stop
// returns the high-water mark. ReadMemStats is cheap at this cadence
// (~50 Hz) relative to per-app analysis cost.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var ms runtime.MemStats
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > s.peak {
				s.peak = ms.HeapAlloc
			}
			select {
			case <-tick.C:
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

func (s *rssSampler) Stop() uint64 {
	close(s.stop)
	<-s.done
	return s.peak
}

// runStreamLane drives the fused pipeline over cfg and returns its
// results plus lane stats.
func runStreamLane(ctx context.Context, cfg *stream.Config, o streamOpts) ([]batch.Result, laneStats, int64, error) {
	tr := obs.New("evaluate:stream")
	analyze := stream.Analyzer(o.coreOptions(), nil)
	src := stream.NewSource(cfg, analyze, stream.SourceOptions{GenJobs: o.genJobs, Obs: tr})
	defer src.Stop()

	var onResult func(int, batch.Result)
	if !o.quiet {
		var n int
		var mu sync.Mutex
		onResult = func(i int, r batch.Result) {
			mu.Lock()
			n++
			if n%200 == 0 {
				fmt.Fprintf(os.Stderr, "[stream %d] %s\n", n, r.Name)
			}
			mu.Unlock()
		}
	}

	runtime.GC() // start from a collected heap so lane order doesn't bias the timing
	sampler := startRSSSampler()
	start := time.Now()
	results, err := batch.RunSource(ctx, src, batch.Options{
		Workers: o.jobs, Obs: tr, OnResult: onResult,
	})
	wall := time.Since(start).Seconds()
	peak := sampler.Stop()
	if err != nil {
		return nil, laneStats{}, 0, err
	}
	_, corpusBytes := src.Emitted()
	st := laneStats{
		Apps:          len(results),
		WallSeconds:   wall,
		AppsPerSecond: float64(len(results)) / wall,
		RSSHighWater:  peak,
		QueuePeak:     tr.GaugeValue("batch.stream_queue_peak"),
	}
	return results, st, corpusBytes, nil
}

// runDiskLane materializes cfg into dir (untimed — that cost is the
// thing streaming deletes), then measures a classic glob-style batch
// run over the files.
func runDiskLane(ctx context.Context, cfg *stream.Config, dir string, o streamOpts) ([]batch.Result, laneStats, error) {
	if err := cfg.Stream(func(a stream.StreamApp) error {
		return os.WriteFile(filepath.Join(dir, a.Name+".app"), a.Raw, 0o644)
	}); err != nil {
		return nil, laneStats{}, err
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.app"))
	if err != nil {
		return nil, laneStats{}, err
	}
	sort.Strings(files)
	analyze := stream.Analyzer(o.coreOptions(), nil)
	jobs := make([]batch.Job, len(files))
	for i := range files {
		path := files[i]
		jobs[i] = batch.Job{
			Name: path,
			Fn: func(jctx context.Context) ([]byte, error) {
				raw, err := os.ReadFile(path)
				if err != nil {
					return nil, err
				}
				return analyze(jctx, path, raw)
			},
		}
	}
	runtime.GC() // start from a collected heap so lane order doesn't bias the timing
	sampler := startRSSSampler()
	start := time.Now()
	results := batch.Run(ctx, jobs, batch.Options{Workers: o.jobs})
	wall := time.Since(start).Seconds()
	peak := sampler.Stop()
	return results, laneStats{
		Apps:          len(results),
		WallSeconds:   wall,
		AppsPerSecond: float64(len(results)) / wall,
		RSSHighWater:  peak,
	}, nil
}

// runStreamEval is `evaluate -stream CONFIG` without -stream-bench: run
// the fused pipeline once and print its verdict table plus a trailer.
func runStreamEval(ctx context.Context, cfgPath string, o streamOpts) error {
	cfg, err := stream.LoadConfig(cfgPath)
	if err != nil {
		return err
	}
	results, st, corpusBytes, err := runStreamLane(ctx, cfg, o)
	if err != nil {
		return err
	}
	os.Stdout.Write(stream.VerdictTable(results))
	fmt.Fprintf(os.Stderr, "stream: %d apps (%d bytes, never on disk) in %.2fs — %.1f apps/s, queue peak %.0f, heap high water %.1f MB\n",
		st.Apps, corpusBytes, st.WallSeconds, st.AppsPerSecond, st.QueuePeak, float64(st.RSSHighWater)/(1<<20))
	for _, r := range results {
		if r.Status == batch.StatusFailed || r.Status == batch.StatusPanic {
			return fmt.Errorf("%s: %s", r.Name, r.Status)
		}
	}
	return nil
}

// runStreamBench measures both lanes over the same config and writes the
// sierra-stream-bench/v1 artifact. The disk lane's corpus lives in a
// temp directory that is deleted afterwards.
func runStreamBench(ctx context.Context, cfgPath, outPath string, o streamOpts) error {
	cfg, err := stream.LoadConfig(cfgPath)
	if err != nil {
		return err
	}

	// The disk lane runs first: its untimed materialization pass
	// generates the whole corpus, which doubles as process warmup (heap
	// grown to steady state, GC out of its ramp) so neither timed lane
	// pays the startup transient. Running the fused lane first was
	// measurably biased against it.
	dir, err := os.MkdirTemp("", "sierra-streambench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "stream-bench: disk lane (materialize to %s, then batch)\n", dir)
	}
	diskResults, diskStats, err := runDiskLane(ctx, cfg, dir, o)
	if err != nil {
		return err
	}

	if !o.quiet {
		fmt.Fprintf(os.Stderr, "stream-bench: fused lane over %s (gen-jobs=%d jobs=%d)\n", cfgPath, o.genJobs, o.jobs)
	}
	streamResults, streamStats, corpusBytes, err := runStreamLane(ctx, cfg, o)
	if err != nil {
		return err
	}

	ratio := 0.0
	if diskStats.AppsPerSecond > 0 {
		ratio = streamStats.AppsPerSecond / diskStats.AppsPerSecond
	}
	report := streamBenchReport{
		Schema:          "sierra-stream-bench/v1",
		GitSHA:          gitSHA(),
		Config:          cfgPath,
		Corpus:          cfg.Name,
		Mix:             cfg.MixSummary(),
		Jobs:            o.jobs,
		GenJobs:         o.genJobs,
		CorpusBytes:     corpusBytes,
		Stream:          streamStats,
		Disk:            diskStats,
		ThroughputRatio: ratio,
		RatioTarget:     streamBenchTarget,
		RatioOK:         ratio >= streamBenchTarget,
		VerdictParity:   bytes.Equal(stream.VerdictTable(streamResults), stream.VerdictTable(diskResults)),
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, raw, 0o644); err != nil {
		return err
	}
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "stream-bench: %d apps — stream %.1f/s vs disk %.1f/s (ratio %.3f, floor %.2f), parity=%t → %s\n",
			streamStats.Apps, streamStats.AppsPerSecond, diskStats.AppsPerSecond, ratio, streamBenchTarget, report.VerdictParity, outPath)
	}
	if !report.VerdictParity {
		return fmt.Errorf("verdict tables differ between the stream and disk lanes")
	}
	return nil
}
