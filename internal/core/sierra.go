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
	// Ledger is the last pass's wall clock by layer: the cold run's, or
	// the last warm apply's (internal/incremental), which skips harness
	// and compare.
	Ledger Ledger
	// Interrupted marks a run whose context was cancelled (or timed out)
	// mid-pipeline: every recorded fact is real but the result is
	// partial. InterruptedStage names the earliest layer that noticed
	// (cgpa, shbg, pairs, compare or refute; see Pass.Step).
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
// and the per-pair refutation loop — poll the context and stop early
// once it is done, so a deadline yields a well-formed partial Result
// (marked Interrupted, with the earliest affected stage in
// InterruptedStage) instead of a stuck process. Every stage still runs:
// a cancelled context makes each one cheap rather than skipped, keeping
// the Result's shape invariants (non-nil Registry/Graph) intact. Each
// stage is one Step of a Pass, so res.Ledger splits the run's wall
// clock by layer.
func AnalyzeContext(ctx context.Context, app *apk.App, opts Options) *Result {
	opts.Policy = opts.policy()
	tr := opts.Obs
	res := &Result{App: app}
	span := tr.Start("analyze")
	p := NewPass(ctx, tr, res)
	p.Step(Harness, func() { res.Harnesses = harness.GenerateTraced(app, tr) })
	p.Step(CGPA, func() { res.solve(ctx, opts.Policy, opts.KeepPTAWarm, tr) })
	p.Step(SHBG, func() { res.buildSHBG(ctx, opts.SHBG, tr) })
	p.Step(Pairs, func() { res.findPairs(tr) })
	if opts.CompareContexts {
		// The rerun reuses the harnesses and is deliberately untraced,
		// so the counters describe the authoritative (action-sensitive)
		// run only; it contributes just its candidate count.
		p.Step(Compare, func() {
			plain := &Result{App: app, Harnesses: res.Harnesses}
			plain.solve(ctx, pointer.Hybrid{K: 2}, false, nil)
			plain.buildSHBG(ctx, opts.SHBG, nil)
			plain.findPairs(nil)
			res.RacyPairsNoAS = len(plain.RacyPairs)
		})
	}
	if !opts.SkipRefutation {
		p.Step(Refute, func() {
			refCfg := opts.Refuter
			refCfg.Obs = tr
			refCfg.Ctx = ctx
			res.AllVerdicts, _ = symexec.CheckAll(res.Registry, res.PTA, refCfg, res.RacyPairs)
		})
		p.Step(Rank, res.Rank)
	}
	tr.Count("core.reports", int64(len(res.Reports)))
	tr.Observe("core.analyze_ms", float64(res.Ledger.Total)/1e6)
	if res.Interrupted {
		tr.Count("core.interrupted", 1)
	}
	span.End()
	return res
}

// solve is the cgpa layer: call graph, points-to analysis and action
// discovery over r's harnesses under policy pol, keeping the solver's
// warm re-solve handle when keepWarm.
func (r *Result) solve(ctx context.Context, pol pointer.Policy, keepWarm bool, tr *obs.Trace) {
	if keepWarm {
		r.Registry, r.PTA, r.PTAWarm = actions.AnalyzeSolverWarm(ctx, r.App, r.Harnesses, pol, pointer.SolverDelta, 0, tr)
	} else {
		r.Registry, r.PTA = actions.AnalyzeSolver(ctx, r.App, r.Harnesses, pol, pointer.SolverDelta, 0, tr)
	}
}

// buildSHBG is the shbg layer.
func (r *Result) buildSHBG(ctx context.Context, opts shbg.Options, tr *obs.Trace) {
	opts.Obs = tr
	opts.Ctx = ctx
	r.Graph = shbg.Build(r.Registry, r.PTA, opts)
}

// findPairs is the pairs layer: every access, then the racy pairs
// among them.
func (r *Result) findPairs(tr *obs.Trace) {
	r.Accesses = race.CollectAccessesTraced(r.Registry, r.PTA, tr)
	r.RacyPairs = race.RacyPairsTraced(r.Registry, r.Graph, r.Accesses, tr)
}

// Rank is the rank layer: it keeps the candidates AllVerdicts does not
// refute, with their verdicts in Verdicts, and ranks them into Reports
// on the program as it stands. A cold run and a warm apply
// (internal/incremental) both end with it.
func (r *Result) Rank() {
	var survivors []race.Pair
	r.Verdicts = nil
	for i, v := range r.AllVerdicts {
		if v.TruePositive {
			survivors = append(survivors, r.RacyPairs[i])
			r.Verdicts = append(r.Verdicts, v)
		}
	}
	r.Reports = report.Rank(r.App.Program, survivors, r.Verdicts)
}
