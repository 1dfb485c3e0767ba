package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"time"

	"sierra/internal/actions"
	"sierra/internal/apk"
	"sierra/internal/appfile"
	"sierra/internal/core"
	"sierra/internal/harness"
	"sierra/internal/pointer"
	"sierra/internal/race"
	"sierra/internal/report"
	"sierra/internal/serve"
	"sierra/internal/shbg"
	"sierra/internal/symexec"
)

// isLayer reports whether a span name is a ledger layer, owning its
// self time. Any other span (an op root, a batch job wrapper, a replay
// phase) is structural, and its self time is the op's unattributed
// remainder.
func isLayer(name string) bool {
	_, ok := spanMetric[name]
	return ok
}

// effort is the work-count side of the ledger, summed over traced ops.
type effort struct {
	actions, edges, candidates, refuted, checked int
}

func (e *effort) add(res *core.Result) {
	e.actions += res.NumActions()
	e.edges += res.HBEdges()
	e.candidates += len(res.RacyPairs)
	e.checked += len(res.AllVerdicts)
	for _, v := range res.AllVerdicts {
		if !v.TruePositive {
			e.refuted++
		}
	}
}

// parseApp is the parse layer: appfile.Read over serialized app bytes.
func parseApp(tr *tracer, op, parent int, raw []byte) (*apk.App, error) {
	s := tr.begin(op, parent, "parse")
	app, err := appfile.Read(bytes.NewReader(raw))
	tr.end(s)
	return app, err
}

// tracedAnalyze is core.AnalyzeContext taken apart at its layer
// boundaries: the same public calls in the same order with the same
// options, each wrapped in a span. The benchmark's tests pin its output
// to core.Analyze, so the ledger describes the program the untraced run
// measures. Result.Timing is left zero. Under KeepPTAWarm it keeps the
// solver's re-solve handle, as core does, so serve-edit's replay can
// make a traced cold run its lineage baseline.
func tracedAnalyze(tr *tracer, op, parent int, app *apk.App, opts core.Options) *core.Result {
	pol := opts.Policy
	if pol == nil {
		pol = pointer.ActionSensitivePolicy{K: 2}
	}
	solver := opts.PTASolver
	if solver == "" {
		solver = pointer.SolverDelta
	}
	res := &core.Result{App: app}

	s := tr.begin(op, parent, "harness")
	res.Harnesses = harness.Generate(app)
	tr.end(s)

	s = tr.begin(op, parent, "cgpa")
	if opts.KeepPTAWarm {
		res.Registry, res.PTA, res.PTAWarm = actions.AnalyzeSolverWarm(nil, app, res.Harnesses, pol, solver, opts.PTAJobs, nil)
	} else {
		res.Registry, res.PTA = actions.AnalyzeSolver(nil, app, res.Harnesses, pol, solver, opts.PTAJobs, nil)
	}
	tr.end(s)

	s = tr.begin(op, parent, "shbg")
	res.Graph = shbg.Build(res.Registry, res.PTA, opts.SHBG)
	tr.end(s)

	s = tr.begin(op, parent, "pairs")
	res.Accesses = race.CollectAccesses(res.Registry, res.PTA)
	res.RacyPairs = race.RacyPairs(res.Registry, res.Graph, res.Accesses)
	tr.end(s)

	s = tr.begin(op, parent, "refute")
	res.AllVerdicts, _ = symexec.CheckAll(res.Registry, res.PTA, opts.Refuter, res.RacyPairs)
	tr.end(s)
	var survivors []race.Pair
	for i, v := range res.AllVerdicts {
		if v.TruePositive {
			survivors = append(survivors, res.RacyPairs[i])
			res.Verdicts = append(res.Verdicts, v)
		}
	}

	s = tr.begin(op, parent, "rank")
	res.Reports = report.Rank(app.Program, survivors, res.Verdicts)
	tr.end(s)
	return res
}

// analyzeOp runs one app through the pipeline: core.AnalyzeContext when
// untraced, the span-wrapped replica when traced.
func analyzeOp(tr *tracer, op, parent int, app *apk.App, opts core.Options) *core.Result {
	if tr == nil {
		return core.AnalyzeContext(nil, app, opts)
	}
	return tracedAnalyze(tr, op, parent, app, opts)
}

// verdictRow is an app's line in a verdict table: the headline counts
// plus a hash of its canonical report document, so any change to a
// reported race (rank, category, access, refuter effort) shows.
func verdictRow(res *core.Result) string {
	h := fnv.New64a()
	h.Write(serve.RenderReport("", res))
	return fmt.Sprintf("%s\t%d\t%d\t%d\t%d\t%d\t%016x", res.App.Name, res.NumHarnesses(),
		res.NumActions(), res.HBEdges(), len(res.RacyPairs), res.TrueRaces(), h.Sum64())
}

// since is the time elapsed since t, in milliseconds.
func since(t time.Time) float64 { return ms(time.Since(t)) }
