package actions

import (
	"context"

	"sierra/internal/apk"
	"sierra/internal/harness"
	"sierra/internal/obs"
	"sierra/internal/pointer"
)

// Analyze runs the joint action-discovery / points-to fixpoint for an
// app whose harnesses have already been generated: it builds the
// registry, wires the harness GUI receiver seeds and view map into the
// pointer analysis, and returns both the populated registry and the
// points-to result.
//
// Call it twice with different policies (action-sensitive vs hybrid) to
// reproduce the paper's with/without-action-sensitivity comparison; the
// harnesses are shared.
func Analyze(app *apk.App, hs []*harness.Harness, pol pointer.Policy) (*Registry, *pointer.Result) {
	return AnalyzeTraced(app, hs, pol, nil)
}

// AnalyzeTraced is Analyze with observability: the trace is handed to
// the pointer analysis (pointer.* counters) and receives the discovered
// action count (actions.discovered). Nil Trace = no-op.
func AnalyzeTraced(app *apk.App, hs []*harness.Harness, pol pointer.Policy, tr *obs.Trace) (*Registry, *pointer.Result) {
	return AnalyzeContext(nil, app, hs, pol, tr)
}

// AnalyzeContext is AnalyzeTraced with cooperative cancellation: the
// context (nil = never cancelled) is threaded into the pointer
// analysis, whose fixpoint stops early once it is done (the returned
// result is then marked Interrupted).
func AnalyzeContext(ctx context.Context, app *apk.App, hs []*harness.Harness, pol pointer.Policy, tr *obs.Trace) (*Registry, *pointer.Result) {
	return AnalyzeSolver(ctx, app, hs, pol, pointer.SolverDelta, 0, tr)
}

// AnalyzeSolver is AnalyzeContext with an explicit points-to solver
// selection (the -pta-solver flag's plumbing). Both solvers produce
// identical results; SolverExhaustive is the slow reference
// implementation kept for parity testing. The ptaJobs parameter stays
// for existing callers. Deprecated: ignored; the solver is sequential.
func AnalyzeSolver(ctx context.Context, app *apk.App, hs []*harness.Harness, pol pointer.Policy, solver pointer.Solver, ptaJobs int, tr *obs.Trace) (*Registry, *pointer.Result) {
	reg, res, _ := AnalyzeSolverWarm(ctx, app, hs, pol, solver, ptaJobs, tr)
	return reg, res
}

// AnalyzeSolverWarm is AnalyzeSolver, but additionally returns the
// pointer solver's warm re-solve handle (nil under the exhaustive
// solver or when the fixpoint was interrupted). Incremental serve
// baselines keep the handle to re-solve skeleton-visible edits without
// a cold fixpoint; everyone else should call AnalyzeSolver and let the
// solver state be collected. The ptaJobs parameter stays for existing
// callers. Deprecated: ignored; the solver is sequential.
func AnalyzeSolverWarm(ctx context.Context, app *apk.App, hs []*harness.Harness, pol pointer.Policy, solver pointer.Solver, ptaJobs int, tr *obs.Trace) (*Registry, *pointer.Result, *pointer.Warm) {
	reg := NewRegistry(app, hs, pol)

	var seeds []pointer.Seed
	for _, h := range hs {
		for _, slot := range h.GUI {
			if slot.BindActivity {
				seeds = append(seeds, pointer.Seed{
					SrcMethod: h.Method, SrcVar: h.ActivityVar,
					DstMethod: h.Method, DstVar: slot.RecvVar,
				})
			}
			for _, bind := range slot.Bindings {
				seeds = append(seeds, pointer.Seed{
					SrcMethod: bind.SrcMethod, SrcVar: bind.SrcVar,
					DstMethod: h.Method, DstVar: slot.RecvVar,
				})
			}
		}
	}

	views := make(map[int]string)
	for id, v := range app.ViewIDs() {
		views[id] = v.Type
	}

	res, warm := pointer.AnalyzeWarm(pointer.Config{
		Prog:     app.Program,
		Policy:   pol,
		Entries:  reg.Entries(),
		Seeds:    seeds,
		Views:    views,
		OnEvent:  reg.OnEvent,
		ActionAt: reg.ActionAt,
		Solver:   solver,
		Obs:      tr,
		Ctx:      ctx,
	})
	tr.Count("actions.discovered", int64(reg.NumActions()))
	return reg, res, warm
}
