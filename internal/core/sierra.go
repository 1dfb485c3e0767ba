// Package core orchestrates the SIERRA pipeline (Fig 3): harness
// generation → action discovery + context-sensitive points-to analysis →
// Static Happens-Before Graph → racy-pair generation → symbolic
// refutation → ranked race reports. It is the library's public analysis
// entry point.
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"sierra/internal/actions"
	"sierra/internal/apk"
	"sierra/internal/harness"
	"sierra/internal/obs"
	"sierra/internal/pointer"
	"sierra/internal/race"
	"sierra/internal/report"
	"sierra/internal/shbg"
	"sierra/internal/symexec"
)

// Options configures an analysis run.
type Options struct {
	// Policy is the context-sensitivity policy (default: the paper's
	// action-sensitive hybrid abstraction with k = 2).
	Policy pointer.Policy
	// CompareContexts additionally runs the pipeline under plain hybrid
	// contexts to fill the "racy pairs without action sensitivity"
	// column of Table 3.
	CompareContexts bool
	// SkipRefutation stops after racy-pair generation.
	SkipRefutation bool
	// Refuter tunes the symbolic executor.
	Refuter symexec.Config
	// SHBG tunes happens-before construction (rule ablation).
	SHBG shbg.Options
	// PTASolver is kept for existing callers.
	//
	// Deprecated: ignored; the delta solver is the only one.
	PTASolver pointer.Solver
	// PTAJobs is kept for existing callers.
	//
	// Deprecated: ignored; the solver is sequential.
	PTAJobs int
	// KeepPTAWarm retains the delta solver's live state on
	// Result.PTAWarm so a later skeleton-visible edit can be re-solved
	// incrementally (internal/incremental's stage reuse). Costs memory
	// proportional to the solver's dependency index; leave off outside
	// serve-baseline use.
	KeepPTAWarm bool
	// Obs, when non-nil, collects hierarchical spans and per-stage
	// effort counters for the whole pipeline (see README.md
	// "Observability"). Nil disables observability at zero cost.
	Obs *obs.Trace
}

// Key renders the options that can change an analysis's output, at
// their effective values, as the canonical options part of every cache
// key: the policy (nil means the default), the comparison rerun,
// refutation on or off, the refutation budgets (symexec.Config's
// Normalized), the refuter's memo switch (it changes each verdict's
// path count, which sierra-report/1 renders) and the SHBG rule
// ablations. Execution knobs — worker counts, PTASolver, PTAJobs,
// KeepPTAWarm, traces and contexts — change no output and are left out,
// so options that differ only in them share a key.
func (o Options) Key() string {
	rc := o.Refuter.Normalized()
	var off []int
	for r, ok := range o.SHBG.Disable {
		if ok {
			off = append(off, int(r))
		}
	}
	sort.Ints(off)
	return fmt.Sprintf("policy=%s|compare=%t|refute=%t|maxpaths=%d|maxdepth=%d|refutecache=%t|shbg-off=%v|gui-teardown=%t",
		o.policy().Name(), o.CompareContexts, !o.SkipRefutation, rc.MaxPaths, rc.MaxDepth,
		!rc.DisableCache, off, !o.SHBG.DisableGUITeardownOrder)
}

// policy is the effective context policy: the paper's action-sensitive
// hybrid abstraction with k = 2 unless Policy sets one.
func (o Options) policy() pointer.Policy {
	if o.Policy == nil {
		return pointer.ActionSensitivePolicy{K: 2}
	}
	return o.Policy
}

// Timing records per-stage wall-clock durations (Table 4's columns).
// The components partition Total: CGPA + HBG + Pairs + Compare +
// Refutation accounts for the whole pipeline.
type Timing struct {
	// CGPA covers harness generation, call graph and pointer analysis.
	CGPA time.Duration
	// HBG covers SHBG construction.
	HBG time.Duration
	// Pairs covers access collection and racy-pair generation.
	Pairs time.Duration
	// Compare covers the optional plain-hybrid rerun (CompareContexts).
	Compare time.Duration
	// Refutation covers backward symbolic execution and ranking.
	Refutation time.Duration
	// Total is the whole pipeline.
	Total time.Duration
}

// Result carries everything a run produced.
type Result struct {
	App       *apk.App
	Harnesses []*harness.Harness
	Registry  *actions.Registry
	PTA       *pointer.Result
	// PTAWarm is the delta solver's warm re-solve handle, populated only
	// under Options.KeepPTAWarm (nil otherwise, and nil when the
	// fixpoint was interrupted).
	PTAWarm  *pointer.Warm
	Graph    *shbg.Graph
	Accesses []race.Access
	// RacyPairs are the candidates under the configured policy.
	RacyPairs []race.Pair
	// RacyPairsNoAS is the candidate count under plain hybrid contexts
	// (only when CompareContexts is set).
	RacyPairsNoAS int
	// AllVerdicts align with RacyPairs (every candidate's refutation
	// outcome; nil when refutation is skipped, shorter than RacyPairs
	// when the run was Interrupted mid-refutation).
	AllVerdicts []symexec.Verdict
	// Verdicts align with the surviving pairs (the Reports' order input).
	Verdicts []symexec.Verdict
	// Reports are the surviving races, ranked.
	Reports []report.Report
	Timing  Timing
	// Interrupted marks a run whose context was cancelled (or timed out)
	// mid-pipeline: every recorded fact is real but the result is
	// partial. InterruptedStage names the earliest stage that noticed
	// ("cgpa", "shbg", "pairs", "compare", "refute").
	Interrupted      bool
	InterruptedStage string
}

// NumHarnesses returns the per-activity harness count.
func (r *Result) NumHarnesses() int { return len(r.Harnesses) }

// NumActions returns the SHBG node count.
func (r *Result) NumActions() int { return r.Registry.NumActions() }

// HBEdges returns the SHBG edge count after closure.
func (r *Result) HBEdges() int { return r.Graph.NumEdges() }

// OrderedPercent is Table 3's "Ordered (%)" column.
func (r *Result) OrderedPercent() float64 { return 100 * r.Graph.OrderedFraction() }

// TrueRaces counts reports (races surviving refutation).
func (r *Result) TrueRaces() int { return len(r.Reports) }

// Analyze runs the full pipeline on one app. The app's program is
// extended with synthetic harness classes; analyze each app instance at
// most once (corpus constructors return fresh instances).
func Analyze(app *apk.App, opts Options) *Result {
	return AnalyzeContext(nil, app, opts)
}

// AnalyzeContext is Analyze with cooperative cancellation (ctx nil =
// never cancelled). The expensive loops — the pointer-analysis
// worklist, the SHBG closure rounds, the symbolic-execution path loop,
// and the per-pair refutation loop here — poll the context and stop
// early once it is done, so a deadline yields a well-formed partial
// Result (marked Interrupted, with the earliest affected stage in
// InterruptedStage) instead of a stuck process. Every stage still runs:
// a cancelled context makes each one cheap rather than skipped, keeping
// the Result's shape invariants (non-nil Registry/Graph) intact.
func AnalyzeContext(ctx context.Context, app *apk.App, opts Options) *Result {
	opts.Policy = opts.policy()
	tr := opts.Obs
	res := &Result{App: app}
	// mark records the earliest stage at which the context was already
	// cancelled (checked at every stage boundary).
	mark := func(stage string) {
		if !res.Interrupted && ctx != nil && ctx.Err() != nil {
			res.Interrupted = true
			res.InterruptedStage = stage
		}
	}
	start := time.Now()
	span := tr.Start("analyze")

	// Stage 1: harness + call graph + pointer analysis (+ actions).
	t0 := time.Now()
	sHarness := tr.Start("harness")
	res.Harnesses = harness.GenerateTraced(app, tr)
	sHarness.End()
	sCGPA := tr.Start("cgpa")
	var reg *actions.Registry
	var pta *pointer.Result
	if opts.KeepPTAWarm {
		reg, pta, res.PTAWarm = actions.AnalyzeSolverWarm(ctx, app, res.Harnesses, opts.Policy, pointer.SolverDelta, 0, tr)
	} else {
		reg, pta = actions.AnalyzeSolver(ctx, app, res.Harnesses, opts.Policy, pointer.SolverDelta, 0, tr)
	}
	sCGPA.End()
	res.Registry, res.PTA = reg, pta
	res.Timing.CGPA = time.Since(t0)
	mark("cgpa")

	// Stage 2: Static Happens-Before Graph.
	t1 := time.Now()
	sSHBG := tr.Start("shbg")
	shbgOpts := opts.SHBG
	shbgOpts.Obs = tr
	shbgOpts.Ctx = ctx
	res.Graph = shbg.Build(reg, pta, shbgOpts)
	sSHBG.End()
	res.Timing.HBG = time.Since(t1)
	mark("shbg")

	// Stage 3: racy pairs (the action-sensitive run is authoritative;
	// the hybrid rerun only contributes its candidate count).
	t2 := time.Now()
	sPairs := tr.Start("pairs")
	res.Accesses = race.CollectAccessesTraced(reg, pta, tr)
	res.RacyPairs = race.RacyPairsTraced(reg, res.Graph, res.Accesses, tr)
	sPairs.End()
	res.Timing.Pairs = time.Since(t2)
	mark("pairs")
	if opts.CompareContexts {
		t3 := time.Now()
		sCompare := tr.Start("compare")
		// The rerun is deliberately untraced so the counters describe
		// the authoritative (action-sensitive) run only.
		plainSHBG := opts.SHBG
		plainSHBG.Obs = nil
		plainSHBG.Ctx = ctx
		regH, ptaH := actions.AnalyzeSolver(ctx, app, res.Harnesses, pointer.Hybrid{K: 2}, pointer.SolverDelta, 0, nil)
		gH := shbg.Build(regH, ptaH, plainSHBG)
		pairsH := race.RacyPairs(regH, gH, race.CollectAccesses(regH, ptaH))
		res.RacyPairsNoAS = len(pairsH)
		sCompare.End()
		res.Timing.Compare = time.Since(t3)
		mark("compare")
	}

	// Stage 4: refutation + ranking.
	t4 := time.Now()
	if !opts.SkipRefutation {
		sRefute := tr.Start("refute")
		refCfg := opts.Refuter
		refCfg.Obs = tr
		refCfg.Ctx = ctx
		var survivors []race.Pair
		var verdicts []symexec.Verdict
		all, interrupted := symexec.CheckAll(reg, pta, refCfg, res.RacyPairs)
		res.AllVerdicts = all
		if interrupted {
			mark("refute")
		}
		for i, v := range all {
			if v.TruePositive {
				survivors = append(survivors, res.RacyPairs[i])
				verdicts = append(verdicts, v)
			}
		}
		sRefute.End()
		res.Verdicts = verdicts
		sRank := tr.Start("rank")
		res.Reports = report.Rank(app.Program, survivors, verdicts)
		sRank.End()
		mark("refute")
	}
	res.Timing.Refutation = time.Since(t4)
	res.Timing.Total = time.Since(start)
	tr.Count("core.reports", int64(len(res.Reports)))
	tr.Observe("core.analyze_ms", float64(res.Timing.Total)/1e6)
	if res.Interrupted {
		tr.Count("core.interrupted", 1)
	}
	span.End()
	return res
}
