package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"sierra/internal/batch"
	"sierra/internal/core"
	"sierra/internal/obs"
	"sierra/internal/shbg"
	"sierra/internal/stream"
	"sierra/internal/symexec"
)

const (
	// streamApps is the per-pass count cap of the stream-small config:
	// large enough that the seeded family mix, and so the work per app,
	// varies little from seed to seed.
	streamApps = 1500
	// streamWindow is the measurement window in emitted apps (~1 s);
	// rates are the median over windows. It divides streamApps.
	streamWindow = 300
	// streamCorpusSeeds is how many corpus seeds have a pinned verdict
	// digest (testdata/stream-small.tsv); the benchmark seed selects one
	// of them.
	streamCorpusSeeds = 64
	// streamSetupSamples is how many set-up samples a run takes, each from
	// a collected heap. A sample sets up every pinned corpus seed once,
	// since the first admitted app's family and size vary with the seed;
	// setup_s is the median sample's mean per set-up.
	streamSetupSamples = 31
)

// streamCorpusSeed maps the benchmark seed onto a pinned corpus seed.
func streamCorpusSeed(seed int64) int64 {
	return (seed%streamCorpusSeeds + streamCorpusSeeds) % streamCorpusSeeds
}

// streamConfigText is the stream-small config: the six non-paper
// scenario families at equal weight, count-capped, at corpus seed seed.
func streamConfigText(seed int64) string {
	return fmt.Sprintf(`corpus stream-small
seed %d
apps %d
scenario async-storm
scenario guarded-sync
scenario service-lifecycle
scenario message-chain
scenario reflection-storm
scenario alias-trap-deep
`, seed, streamApps)
}

// streamOptions pins every per-app kernel at 1 — apps run in parallel
// instead — so Refuter.Jobs=1 selects the shared-memo refuter.
func streamOptions() core.Options {
	return core.Options{
		Refuter: symexec.Config{MaxPaths: 5000, MaxDepth: 6, Jobs: 1},
		SHBG:    shbg.Options{Jobs: 1},
		PTAJobs: 1,
	}
}

// opSpans carries an op's span ids to the traced analyzer through the
// job's context (the stream source owns the call in between).
type opSpans struct{ op, parent int }

type opSpansKey struct{}

// timedSource wraps the stream source: it records when each app is
// yielded (the op's start) and how long Next stalled on generation, and
// when traced, wraps each job's Fn to time queue wait, the job itself,
// and emission wait.
type timedSource struct {
	inner batch.Source
	tr    *tracer

	// primed holds the first job, pulled by prime before the engine
	// starts; its yield starts the pass's timed part.
	primed *batch.Job

	mu     sync.Mutex
	marks  []phase // at the first yield, then every streamWindow emissions
	yields []time.Time
	roots  []int // root span per op (traced)
	emits  []int // emission-wait span per op (traced)
	stall  time.Duration
	busy   time.Duration // Σ job Fn wall
	lats   []float64     // ms, in emission order
}

// prime pulls the first app ahead of the batch engine: the end of the
// pass's set-up. It reports false if the config admits no app.
func (s *timedSource) prime(ctx context.Context) (bool, error) {
	job, ok, err := s.Next(ctx)
	if ok {
		s.primed = &job
		s.marks = append(s.marks, markPhase())
	}
	return ok, err
}

func (s *timedSource) Next(ctx context.Context) (batch.Job, bool, error) {
	if j := s.primed; j != nil {
		s.primed = nil
		return *j, true, nil
	}
	t0 := time.Now()
	job, ok, err := s.inner.Next(ctx)
	now := time.Now()
	if !ok || err != nil {
		return job, ok, err
	}
	s.mu.Lock()
	s.stall += now.Sub(t0)
	i := len(s.yields)
	s.yields = append(s.yields, now)
	s.mu.Unlock()
	if s.tr == nil {
		return job, true, nil
	}
	op, root := s.tr.newOpAt("op:"+job.Name, now)
	queue := s.tr.beginAt(op, root, "batch.queue", now)
	s.mu.Lock()
	s.roots = append(s.roots, root)
	s.emits = append(s.emits, -1)
	s.mu.Unlock()
	fn := job.Fn
	job.Fn = func(ctx context.Context) ([]byte, error) {
		start := time.Now()
		s.tr.endAt(queue, start)
		js := s.tr.beginAt(op, root, "batch.job", start)
		v, err := fn(context.WithValue(ctx, opSpansKey{}, opSpans{op, js}))
		end := time.Now()
		s.tr.endAt(js, end)
		emit := s.tr.beginAt(op, root, "batch.emit", end)
		s.mu.Lock()
		s.emits[i] = emit
		s.busy += end.Sub(start)
		s.mu.Unlock()
		return v, err
	}
	return job, true, nil
}

// onResult is the batch engine's in-order emission callback.
func (s *timedSource) onResult(i int, _ batch.Result) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lats = append(s.lats, ms(now.Sub(s.yields[i])))
	if len(s.lats)%streamWindow == 0 {
		s.marks = append(s.marks, markPhase())
	}
	if s.tr != nil {
		s.tr.endAt(s.emits[i], now)
		s.tr.endAt(s.roots[i], now)
	}
}

// tracedAnalyzer is stream.Analyzer with the pipeline taken apart into
// spans: parse, then tracedAnalyze, marshalling the same Summary (its
// TotalSeconds, absent from the verdict table, reads 0).
func tracedAnalyzer(tr *tracer, opts core.Options, mu *sync.Mutex, ef *effort) stream.AnalyzeFn {
	return func(ctx context.Context, name string, raw []byte) ([]byte, error) {
		ids := ctx.Value(opSpansKey{}).(opSpans)
		app, err := parseApp(tr, ids.op, ids.parent, raw)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", name, err)
		}
		res := tracedAnalyze(tr, ids.op, ids.parent, app, opts)
		mu.Lock()
		ef.add(res)
		mu.Unlock()
		return json.Marshal(stream.Summary{
			App:         app.Name,
			Harnesses:   res.NumHarnesses(),
			Actions:     res.NumActions(),
			HBEdges:     res.HBEdges(),
			RacyPairs:   len(res.RacyPairs),
			Races:       res.TrueRaces(),
			Interrupted: res.Interrupted,
		})
	}
}

// referenceTable is the stream's verdict table computed the serial
// reference way: Config.Stream in index order, each app analyzed
// directly — no fused source, no batch engine. `--record` pins its
// digest.
func referenceTable(cfg *stream.Config) ([]byte, error) {
	analyze := stream.Analyzer(streamOptions(), nil)
	var results []batch.Result
	err := cfg.Stream(func(a stream.StreamApp) error {
		v, err := analyze(context.Background(), a.Name, a.Raw)
		if err != nil {
			return err
		}
		results = append(results, batch.Result{Name: a.Name + ".app", Status: batch.StatusOK, Value: v})
		return nil
	})
	return stream.VerdictTable(results), err
}

func tableDigest(table []byte) string { return fmt.Sprintf("%x", sha256.Sum256(table)) }

// measureStreamSetup times one set-up sample: for every pinned corpus
// seed, the set-up a user of a stream pays — config parse, then the
// first admitted app generated and serialized. The work runs on the
// calling goroutine (the source would run it on its generation worker),
// so the sample measures that work and not a goroutine handoff. It
// returns the mean per set-up.
func measureStreamSetup() (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	for seed := int64(0); seed < streamCorpusSeeds; seed++ {
		c, err := stream.ParseConfig(strings.NewReader(streamConfigText(seed)))
		if err != nil {
			return 0, err
		}
		if !c.Admit(0, 0) {
			return 0, fmt.Errorf("set-up config %d admits no app", seed)
		}
		if _, _, err := c.GenerateRaw(0, nil); err != nil {
			return 0, err
		}
	}
	return time.Since(t0) / streamCorpusSeeds, nil
}

// runStreamSmall runs whole passes of the count-capped config through
// stream.NewSource → batch.RunSource until the timed phases total
// cfg.seconds; a collection precedes each pass, and each pass is a fresh
// source. Traced runs alternate untraced and traced passes.
func runStreamSmall(cfg runConfig) (result, error) {
	seed := streamCorpusSeed(cfg.seed)
	text := streamConfigText(seed)
	if cfg.record {
		c, err := stream.ParseConfig(strings.NewReader(text))
		if err != nil {
			return result{}, err
		}
		table, err := referenceTable(c)
		if err != nil {
			return result{}, err
		}
		fmt.Printf("%d\t%s\n", seed, tableDigest(table))
		return result{}, nil
	}
	golden, err := loadGolden(goldenStreamSmall)
	if err != nil {
		return result{}, err
	}
	want, ok := golden[fmt.Sprint(seed)]
	if !ok {
		return result{}, fmt.Errorf("corpus seed %d has no pinned verdict digest; pin it with --seed %d --record", seed, seed)
	}

	m := e2e{}
	for k := 0; k < streamSetupSamples; k++ {
		d, err := measureStreamSetup()
		if err != nil {
			return result{}, err
		}
		m.setups = append(m.setups, d.Seconds())
	}

	workers := runtime.GOMAXPROCS(0)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var (
		efMu        sync.Mutex
		ef          effort
		plain       phaseStats
		plainOps    int
		tracedWall  time.Duration
		stall, busy time.Duration
		genObs      = obs.New("perfbench:gen")
		passWall    [2][]float64 // wall ms per app per pass: [untraced, traced]
	)
	for pass := 0; m.timed() < cfg.seconds || (cfg.trace && pass < 2); pass++ {
		ptr := (*tracer)(nil)
		if cfg.trace && pass%2 == 1 {
			ptr = tr
		}
		analyze := stream.Analyzer(streamOptions(), nil)
		if ptr != nil {
			analyze = tracedAnalyzer(ptr, streamOptions(), &efMu, &ef)
		}
		srcObs := (*obs.Trace)(nil)
		if ptr != nil {
			srcObs = genObs
		}

		runtime.GC()
		c, err := stream.ParseConfig(strings.NewReader(text))
		if err != nil {
			return result{}, err
		}
		src := stream.NewSource(c, analyze, stream.SourceOptions{GenJobs: 1, Obs: srcObs})
		ts := &timedSource{inner: src, tr: ptr}
		// The timed part of the pass starts when the first app is
		// admitted.
		ok, err := ts.prime(context.Background())
		if !ok || err != nil {
			src.Stop()
			return result{}, fmt.Errorf("pass %d admitted no app: %v", pass, err)
		}
		results, err := batch.RunSource(context.Background(), ts, batch.Options{Workers: workers, OnResult: ts.onResult})
		src.Stop()
		if err != nil {
			return result{}, err
		}
		// The timed part of the pass runs from the first yield to the
		// last emission.
		for k := 1; k < len(ts.marks); k++ {
			m.addWindow(streamWindow, ts.marks[k-1].until(ts.marks[k]))
		}
		ps := ts.marks[0].until(ts.marks[len(ts.marks)-1])

		m.attempted += len(results)
		for _, r := range results {
			if r.Status != batch.StatusOK {
				m.failed++
				cfg.logf("%s: %s %s%s", r.Name, r.Status, r.Err, r.Panic)
			}
		}
		table := stream.VerdictTable(results)
		if fmt.Sprintf("%d\t%s", seed, tableDigest(table)) != want {
			m.failed += len(results)
			cfg.logf("pass %d: verdict table digest %s, pinned %s", pass, tableDigest(table), want)
		}
		m.latencies = append(m.latencies, ts.lats...)
		passWall[pass%2] = append(passWall[pass%2], ms(ps.wall)/float64(len(results)))
		if ptr == nil {
			plain.add(ps)
			plainOps += len(results)
		} else {
			tracedWall += ps.wall
			stall += ts.stall
			busy += ts.busy
		}
	}
	if !cfg.trace {
		return m.result("stream-small"), nil
	}
	lg, err := buildLedger(tr.spans, isLayer)
	if err != nil {
		return result{}, err
	}
	gen := genObs.Hist("corpusgen.gen_ms")
	extra := map[string]float64{
		"trace.overhead_frac": overhead(passWall[1], passWall[0]),
		"gen.stall_ms":        lg.msPerOp(stall),
	}
	if gen.Count() > 0 {
		extra["gen.ms_per_app"] = gen.Sum() / float64(gen.Count())
	}
	if tracedWall > 0 {
		extra["batch.worker_busy_frac"] = float64(busy) / float64(tracedWall) / float64(workers)
	}
	return traceResult(cfg, "stream-small", m, tr, layerReport(lg, ef, plain, plainOps, extra))
}
