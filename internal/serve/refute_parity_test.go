package serve_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"sierra/internal/core"
	"sierra/internal/corpus"
	"sierra/internal/race"
	"sierra/internal/report"
	"sierra/internal/serve"
	"sierra/internal/symexec"
)

// refuteTail re-runs only core.Analyze's refutation stage (CheckAll,
// the survivor filter, ranking) on a refutation-skipped result, so one
// pointer analysis per app serves every refuter config under test.
func refuteTail(base *core.Result, cfg symexec.Config) *core.Result {
	res := *base
	res.AllVerdicts, _ = symexec.CheckAll(base.Registry, base.PTA, cfg, base.RacyPairs)
	res.Verdicts = nil
	var survivors []race.Pair
	for i, v := range res.AllVerdicts {
		if v.TruePositive {
			survivors = append(survivors, base.RacyPairs[i])
			res.Verdicts = append(res.Verdicts, v)
		}
	}
	res.Reports = report.Rank(base.App.Program, survivors, res.Verdicts)
	return &res
}

// TestRefuterParityAcrossFamilies pins the refutation pool's contract
// on every scenario family except table2-x10 (too large for a unit
// test), a few seeds each:
//
//   - at a tight (2) and the paper's (5000) path budget, every worker
//     count ≥ 2 renders the byte-identical canonical report, which is
//     what lets serve.RefuteJobs pick any count ≥ 2;
//   - at the default budget, the one-worker shared-memo refuter reaches
//     the same verdict for every pair as the per-pair pool. Its path
//     counts may differ: memos shared across pairs change how many
//     paths a later pair explores, so its reports are not byte-identical.
func TestRefuterParityAcrossFamilies(t *testing.T) {
	const seeds = 3
	for _, sc := range corpus.Scenarios() {
		if sc.Name == "table2-x10" {
			continue
		}
		for seed := int64(0); seed < seeds; seed++ {
			name := fmt.Sprintf("%s-%d", sc.Name, seed)
			// Analysis extends the app's program with harness classes,
			// so each run gets a freshly generated copy.
			app, _ := sc.Generate(name, seed, nil)
			base := core.Analyze(app, core.Options{SkipRefutation: true})

			// The tail must reproduce core.Analyze's refutation stage.
			fresh, _ := sc.Generate(name, seed, nil)
			full := core.Analyze(fresh, core.Options{Refuter: symexec.Config{Jobs: 2}})
			if !bytes.Equal(serve.RenderReport("", full), serve.RenderReport("", refuteTail(base, symexec.Config{Jobs: 2}))) {
				t.Fatalf("%s: refuteTail diverges from core.Analyze", name)
			}

			for _, maxPaths := range []int{2, 5000} {
				want := serve.RenderReport("", refuteTail(base, symexec.Config{MaxPaths: maxPaths, Jobs: 2}))
				for _, jobs := range []int{3, 8} {
					got := serve.RenderReport("", refuteTail(base, symexec.Config{MaxPaths: maxPaths, Jobs: jobs}))
					if !bytes.Equal(got, want) {
						t.Errorf("%s max-paths=%d: report at jobs=%d differs from jobs=2", name, maxPaths, jobs)
					}
				}
			}

			seq, _ := symexec.CheckAll(base.Registry, base.PTA, symexec.Config{Jobs: 1}, base.RacyPairs)
			par, _ := symexec.CheckAll(base.Registry, base.PTA, symexec.Config{Jobs: 2}, base.RacyPairs)
			for i := range base.RacyPairs {
				s, p := seq[i], par[i]
				if s.TruePositive != p.TruePositive || s.BudgetExhausted != p.BudgetExhausted ||
					!reflect.DeepEqual(s.RefutedOrders, p.RefutedOrders) {
					t.Errorf("%s pair %s: jobs=1 verdict %+v, jobs=2 %+v", name, base.RacyPairs[i].Key(), s, p)
				}
			}
		}
	}
}
