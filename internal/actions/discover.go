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
	reg, res, _ := AnalyzeSolverWarm(nil, app, hs, pol, pointer.SolverDelta, 0, nil)
	return reg, res
}

// AnalyzeSolver is Analyze with cooperative cancellation and
// observability: the context (nil = never cancelled) is threaded into
// the pointer analysis, whose fixpoint stops early once it is done (the
// result is then marked Interrupted), and the trace (nil = no-op)
// receives the pointer.* counters and the discovered action count
// (actions.discovered). The solver and ptaJobs parameters stay for
// existing callers. Deprecated: both are ignored; the delta solver is
// the only one, and it is sequential.
func AnalyzeSolver(ctx context.Context, app *apk.App, hs []*harness.Harness, pol pointer.Policy, solver pointer.Solver, ptaJobs int, tr *obs.Trace) (*Registry, *pointer.Result) {
	reg, res, _ := AnalyzeSolverWarm(ctx, app, hs, pol, solver, ptaJobs, tr)
	return reg, res
}

// AnalyzeSolverWarm is AnalyzeSolver, but additionally returns the
// pointer solver's warm re-solve handle (nil when the fixpoint was
// interrupted). Incremental serve baselines keep the handle to re-solve
// skeleton-visible edits without a cold fixpoint; everyone else should
// call AnalyzeSolver and let the solver state be collected.
func AnalyzeSolverWarm(ctx context.Context, app *apk.App, hs []*harness.Harness, pol pointer.Policy, _ pointer.Solver, _ int, tr *obs.Trace) (*Registry, *pointer.Result, *pointer.Warm) {
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
		Obs:      tr,
		Ctx:      ctx,
	})
	tr.Count("actions.discovered", int64(reg.NumActions()))
	return reg, res, warm
}
