package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sierra/internal/appfile"
	"sierra/internal/core"
	"sierra/internal/corpus"
	"sierra/internal/shbg"
	"sierra/internal/symexec"
)

// paperApp is one serialized Table-2/3 app with its planted true races.
type paperApp struct {
	name  string
	raw   []byte
	truth []string
}

// paperOptions are the one-shot `sierra` defaults with every per-app
// kernel at GOMAXPROCS. The refuter runs at least two workers so its
// verdicts take the per-pair-pure path the pinned table was recorded on
// (on one CPU, Jobs=1 would select the shared-memo refuter).
func paperOptions() core.Options {
	n := runtime.GOMAXPROCS(0)
	return core.Options{
		Refuter: symexec.Config{MaxPaths: 5000, MaxDepth: 6, Jobs: max(2, n)},
		SHBG:    shbg.Options{Jobs: n},
		PTAJobs: n,
	}
}

// buildPaperCorpus generates and serializes the 20 named apps — the
// workload's set-up.
func buildPaperCorpus() ([]paperApp, error) {
	rows := corpus.PaperRows()
	out := make([]paperApp, len(rows))
	for i, row := range rows {
		app, gt := corpus.NamedApp(row)
		raw, err := appfile.Bytes(app)
		if err != nil {
			return nil, fmt.Errorf("serializing %s: %w", row.Name, err)
		}
		out[i] = paperApp{name: row.Name, raw: raw, truth: gt.SortedTrueFields()}
	}
	return out, nil
}

const (
	// paperSetupReps is how many times set-up runs per process; setup_s
	// is the median.
	paperSetupReps = 5
	// paperMinPasses guarantees 100 ops per run, so latency_p90_ms has
	// at least ten samples beyond it.
	paperMinPasses = 5
)

// checkPaperOp verifies one analysis: its verdict row equals the pinned
// table's, and every planted true race is reported.
func checkPaperOp(p paperApp, res *core.Result, golden map[string]string) error {
	if res.Interrupted {
		return fmt.Errorf("interrupted at %s", res.InterruptedStage)
	}
	if got, want := verdictRow(res), golden[p.name]; got != want {
		return fmt.Errorf("verdict row\n got  %s\n want %s", got, want)
	}
	reported := map[string]bool{}
	for _, r := range res.Reports {
		reported[r.Pair.A.Field] = true
	}
	for _, f := range p.truth {
		if !reported[f] {
			return fmt.Errorf("planted true race on %s not reported", f)
		}
	}
	return nil
}

// runPaper20 runs whole passes over the corpus until the timed ops total
// cfg.seconds, and at least paperMinPasses. Each op is its own timed
// phase: it starts from a collected heap, as a one-shot `sierra` run
// does, so no app pays for the garbage of the one before it. Untraced,
// every pass is measured; traced, passes alternate untraced/traced so
// the tracing overhead is measured in the same process, and per-layer
// metrics come from the traced passes.
func runPaper20(cfg runConfig) (result, error) {
	var apps []paperApp
	var setups []float64
	for i := 0; i < paperSetupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		c, err := buildPaperCorpus()
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		apps = c
	}
	opts := paperOptions()
	if cfg.record {
		for _, p := range apps {
			app, err := parseApp(nil, -1, -1, p.raw)
			if err != nil {
				return result{}, err
			}
			fmt.Println(verdictRow(analyzeOp(nil, -1, -1, app, opts)))
		}
		return result{}, nil
	}
	golden, err := loadGolden(goldenPaper20)
	if err != nil {
		return result{}, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))

	m := e2e{setups: setups}
	var tr *tracer
	var plain phaseStats // untraced passes: the go.* metrics' window
	var plainOps int
	var ef effort
	var passWall [2][]float64 // mean op ms per pass: [untraced, traced]
	if cfg.trace {
		tr = newTracer()
	}
	for pass := 0; m.timed() < cfg.seconds || pass < paperMinPasses; pass++ {
		ptr := (*tracer)(nil)
		if cfg.trace && pass%2 == 1 {
			ptr = tr
		}
		var lats []float64
		var passPS phaseStats
		for _, i := range rng.Perm(len(apps)) {
			p := apps[i]
			m.attempted++
			ph := startPhase()
			op, root := ptr.newOpAt("op:"+p.name, ph.start)
			app, err := parseApp(ptr, op, root, p.raw)
			var res *core.Result
			if err == nil {
				res = analyzeOp(ptr, op, root, app, opts)
			}
			ps := ph.stop()
			ptr.end(root)
			if err == nil {
				err = checkPaperOp(p, res, golden)
			}
			if err != nil {
				m.failed++
				cfg.logf("%s: %v", p.name, err)
			}
			if res == nil {
				continue
			}
			lats = append(lats, ms(ps.wall))
			passPS.add(ps)
			if ptr == nil {
				plain.add(ps)
				plainOps++
			} else {
				ef.add(res)
			}
		}
		cfg.logf("paper20 pass %d: %.3fs", pass, passPS.wall.Seconds())
		m.latencies = append(m.latencies, lats...)
		m.addWindow(len(lats), passPS)
		if len(lats) > 0 {
			passWall[pass%2] = append(passWall[pass%2], sum(lats)/float64(len(lats)))
		}
	}
	if !cfg.trace {
		return m.result("paper20"), nil
	}
	lg, err := buildLedger(tr.spans, isLayer)
	if err != nil {
		return result{}, err
	}
	extra := map[string]float64{"trace.overhead_frac": overhead(passWall[1], passWall[0])}
	return traceResult(cfg, "paper20", m, tr, layerReport(lg, ef, plain, plainOps, extra))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// overhead is the traced-over-untraced cost ratio minus one, from
// per-segment mean op wall clock.
func overhead(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	u := sum(untraced) / float64(len(untraced))
	return sum(traced)/float64(len(traced))/u - 1
}
