// Benchmarks regenerating the paper's evaluation (one benchmark per
// table) plus ablations over the design choices DESIGN.md calls out.
//
//	go test -bench=. -benchmem
//
// Absolute times differ from the paper (its substrate was real 2017 APKs
// on WALA/Z3); the benchmarks document the pipeline's cost structure and
// re-derive every table's numbers. Shape assertions live in the package
// tests; these report metrics via b.ReportMetric so the funnel is
// visible in benchmark output.
package sierra

import (
	"fmt"
	"testing"

	"sierra/internal/actions"
	"sierra/internal/core"
	"sierra/internal/corpus"
	"sierra/internal/eventracer"
	"sierra/internal/harness"
	"sierra/internal/interp"
	"sierra/internal/metrics"
	"sierra/internal/obs"
	"sierra/internal/pointer"
	"sierra/internal/race"
	"sierra/internal/shbg"
	"sierra/internal/symexec"
)

// BenchmarkTable2Corpus measures generating the 20-app dataset and
// reports its total model bytecode size (Table 2's size column).
func BenchmarkTable2Corpus(b *testing.B) {
	var totalKB float64
	for i := 0; i < b.N; i++ {
		totalKB = 0
		for _, row := range corpus.PaperRows() {
			app, _ := corpus.NamedApp(row)
			totalKB += float64(app.BytecodeSize()) / 1024
		}
	}
	b.ReportMetric(totalKB, "modelKB")
}

// BenchmarkTable3Effectiveness runs the full pipeline per named app
// (racy pairs with/without action sensitivity, refutation) — Table 3.
func BenchmarkTable3Effectiveness(b *testing.B) {
	for _, row := range corpus.PaperRows() {
		row := row
		b.Run(row.Name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				app, _ := corpus.NamedApp(row)
				res = core.Analyze(app, core.Options{CompareContexts: true})
			}
			b.ReportMetric(float64(res.NumActions()), "actions")
			b.ReportMetric(float64(res.HBEdges()), "hbEdges")
			b.ReportMetric(float64(res.RacyPairsNoAS), "racyNoAS")
			b.ReportMetric(float64(len(res.RacyPairs)), "racyAS")
			b.ReportMetric(float64(res.TrueRaces()), "afterRefut")
		})
	}
}

// BenchmarkTable4Stages isolates the three pipeline stages Table 4
// times: call graph + pointer analysis, SHBG construction, refutation.
func BenchmarkTable4Stages(b *testing.B) {
	row, _ := corpus.RowByName("KeePassDroid") // a mid-sized app

	b.Run("CG+PA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			app, _ := corpus.NamedApp(row)
			hs := harness.Generate(app)
			actions.Analyze(app, hs, pointer.ActionSensitivePolicy{K: 2})
		}
	})
	b.Run("HBG", func(b *testing.B) {
		app, _ := corpus.NamedApp(row)
		hs := harness.Generate(app)
		reg, res := actions.Analyze(app, hs, pointer.ActionSensitivePolicy{K: 2})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			shbg.Build(reg, res, shbg.Options{})
		}
	})
	b.Run("Refutation", func(b *testing.B) {
		app, _ := corpus.NamedApp(row)
		hs := harness.Generate(app)
		reg, res := actions.Analyze(app, hs, pointer.ActionSensitivePolicy{K: 2})
		g := shbg.Build(reg, res, shbg.Options{})
		pairs := race.RacyPairs(reg, g, race.CollectAccesses(reg, res))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ref := symexec.NewRefuter(reg, res, symexec.Config{})
			for _, p := range pairs {
				ref.Check(p)
			}
		}
	})
}

// BenchmarkAnalyze is the nil-Obs baseline for the observability layer:
// the full pipeline with tracing disabled. BenchmarkAnalyzeObs runs the
// identical workload with a live trace; the two must stay within noise
// of each other (the hot paths only pay a nil check when Obs is off,
// and stage-local accumulators when it is on).
func BenchmarkAnalyze(b *testing.B) {
	row, _ := corpus.RowByName("OpenSudoku")
	for i := 0; i < b.N; i++ {
		app, _ := corpus.NamedApp(row)
		core.Analyze(app, core.Options{CompareContexts: true})
	}
}

// BenchmarkAnalyzeObs is BenchmarkAnalyze with tracing enabled — the
// delta between the two is the observability overhead.
func BenchmarkAnalyzeObs(b *testing.B) {
	row, _ := corpus.RowByName("OpenSudoku")
	for i := 0; i < b.N; i++ {
		app, _ := corpus.NamedApp(row)
		core.Analyze(app, core.Options{CompareContexts: true, Obs: obs.New("bench")})
	}
}

// BenchmarkTable5LargeCorpus runs the pipeline over a slice of the
// generated 174-app dataset and reports the medians Table 5 tracks.
func BenchmarkTable5LargeCorpus(b *testing.B) {
	const sample = 30 // of corpus.FDroidCount; cmd/evaluate runs all 174
	var rows []metrics.Row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for j := 0; j < sample; j++ {
			rows = append(rows, metrics.EvaluateFDroid(j, metrics.Options{}))
		}
	}
	m := metrics.MedianRow(rows)
	b.ReportMetric(float64(m.Actions), "medActions")
	b.ReportMetric(float64(m.RacyAS), "medRacyAS")
	b.ReportMetric(float64(m.AfterRefut), "medAfterRefut")
}

// BenchmarkAblationContexts compares candidate counts across context
// policies (the paper's §3.3 comparison generalized).
func BenchmarkAblationContexts(b *testing.B) {
	row, _ := corpus.RowByName("APV")
	policies := []pointer.Policy{
		pointer.Insensitive{},
		pointer.KCFA{K: 2},
		pointer.KObj{K: 2},
		pointer.Hybrid{K: 2},
		pointer.ActionSensitivePolicy{K: 2},
	}
	for _, pol := range policies {
		pol := pol
		b.Run(pol.Name(), func(b *testing.B) {
			var pairs int
			for i := 0; i < b.N; i++ {
				app, _ := corpus.NamedApp(row)
				hs := harness.Generate(app)
				reg, res := actions.Analyze(app, hs, pol)
				g := shbg.Build(reg, res, shbg.Options{})
				pairs = len(race.RacyPairs(reg, g, race.CollectAccesses(reg, res)))
			}
			b.ReportMetric(float64(pairs), "racyPairs")
		})
	}
}

// BenchmarkAblationHBRules drops each HB rule and reports the lost
// edges and gained candidates. APV gives rules 4 and 5 (intra-proc,
// inter-proc) nothing to order, so their two rows also run on
// corpus.PostOrderApp, where each rule orders posts.
func BenchmarkAblationHBRules(b *testing.B) {
	row, _ := corpus.RowByName("APV")
	rules := []shbg.Rule{
		shbg.RuleInvocation, shbg.RuleLifecycle, shbg.RuleGUI,
		shbg.RuleIntraProc, shbg.RuleInterProc, shbg.RuleInterAction,
	}
	app, _ := corpus.NamedApp(row)
	hs := harness.Generate(app)
	reg, res := actions.Analyze(app, hs, pointer.ActionSensitivePolicy{K: 2})
	accs := race.CollectAccesses(reg, res)

	ablate := func(name string, reg *actions.Registry, res *pointer.Result, accs []race.Access, opts shbg.Options) {
		b.Run(name, func(b *testing.B) {
			var g *shbg.Graph
			for i := 0; i < b.N; i++ {
				g = shbg.Build(reg, res, opts)
			}
			b.ReportMetric(float64(g.NumEdges()), "hbEdges")
			b.ReportMetric(float64(len(race.RacyPairs(reg, g, accs))), "racyPairs")
		})
	}
	ablate("full", reg, res, accs, shbg.Options{})
	for _, rule := range rules {
		ablate(fmt.Sprintf("without-%s", rule), reg, res, accs, shbg.Options{Disable: map[shbg.Rule]bool{rule: true}})
	}
	// The §6.4 GUI-before-stop filter in isolation.
	ablate("without-gui-teardown", reg, res, accs, shbg.Options{DisableGUITeardownOrder: true})

	po := corpus.PostOrderApp()
	poReg, poRes := actions.Analyze(po, harness.Generate(po), pointer.ActionSensitivePolicy{K: 2})
	poAccs := race.CollectAccesses(poReg, poRes)
	ablate("post-order/full", poReg, poRes, poAccs, shbg.Options{})
	for _, rule := range []shbg.Rule{shbg.RuleIntraProc, shbg.RuleInterProc} {
		ablate(fmt.Sprintf("post-order/without-%s", rule), poReg, poRes, poAccs, shbg.Options{Disable: map[shbg.Rule]bool{rule: true}})
	}
}

// BenchmarkAblationPathBudget sweeps the refuter's path budget.
func BenchmarkAblationPathBudget(b *testing.B) {
	row, _ := corpus.RowByName("OpenSudoku")
	app, _ := corpus.NamedApp(row)
	hs := harness.Generate(app)
	reg, res := actions.Analyze(app, hs, pointer.ActionSensitivePolicy{K: 2})
	g := shbg.Build(reg, res, shbg.Options{})
	pairs := race.RacyPairs(reg, g, race.CollectAccesses(reg, res))

	for _, budget := range []int{50, 500, 5000} {
		budget := budget
		b.Run(fmt.Sprintf("paths-%d", budget), func(b *testing.B) {
			var survivors int
			for i := 0; i < b.N; i++ {
				ref := symexec.NewRefuter(reg, res, symexec.Config{MaxPaths: budget})
				survivors = 0
				for _, p := range pairs {
					if ref.Check(p).TruePositive {
						survivors++
					}
				}
			}
			b.ReportMetric(float64(survivors), "survivors")
		})
	}
}

// BenchmarkAblationRefutationCache toggles the memos the refuter's
// queries within one pair share.
func BenchmarkAblationRefutationCache(b *testing.B) {
	row, _ := corpus.RowByName("OpenSudoku")
	app, _ := corpus.NamedApp(row)
	hs := harness.Generate(app)
	reg, res := actions.Analyze(app, hs, pointer.ActionSensitivePolicy{K: 2})
	g := shbg.Build(reg, res, shbg.Options{})
	pairs := race.RacyPairs(reg, g, race.CollectAccesses(reg, res))

	for _, disable := range []bool{false, true} {
		disable := disable
		name := "cached"
		if disable {
			name = "uncached"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ref := symexec.NewRefuter(reg, res, symexec.Config{DisableCache: disable})
				for _, p := range pairs {
					ref.Check(p)
				}
			}
		})
	}
}

// BenchmarkDynamicBaseline measures the EventRacer-style detector
// (Table 3's comparison column).
func BenchmarkDynamicBaseline(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(eventracer.Detect(corpus.NewsApp, eventracer.Options{
			Schedules: 5, EventsPerSchedule: 40, Seed: 1,
		}))
	}
	b.ReportMetric(float64(n), "dynRaces")
}

// BenchmarkInterpreter measures raw event execution throughput of the
// runtime simulator.
func BenchmarkInterpreter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := interp.NewMachine(corpus.NewsApp(), int64(i))
		m.Run(60)
	}
}

// BenchmarkPointerAnalysis measures the points-to fixpoint alone on a
// mid-sized app under the action-sensitive policy.
func BenchmarkPointerAnalysis(b *testing.B) {
	row, _ := corpus.RowByName("ConnectBot")
	for i := 0; i < b.N; i++ {
		app, _ := corpus.NamedApp(row)
		hs := harness.Generate(app)
		actions.Analyze(app, hs, pointer.ActionSensitivePolicy{K: 2})
	}
}
