package incremental_test

import (
	"bytes"
	"strings"
	"testing"

	"sierra/internal/apk"
	"sierra/internal/appfile"
	"sierra/internal/batch"
	"sierra/internal/core"
	"sierra/internal/corpus"
	"sierra/internal/incremental"
	"sierra/internal/obs"
	"sierra/internal/serve"
	"sierra/internal/symexec"
)

func readDemo(t *testing.T, ed corpus.IncrDemoEdit) ([]byte, *apk.App) {
	t.Helper()
	raw := corpus.IncrDemoText(ed)
	app, err := appfile.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("parsing IncrDemo: %v", err)
	}
	return raw, app
}

// serveCfg is the refutation config edits are applied with. Its worker
// count does not change a verdict, so it need not match the baseline's.
func serveCfg() symexec.Config { return symexec.Config{Jobs: 2} }

func fullAnalyze(t *testing.T, app *apk.App) *core.Result {
	t.Helper()
	res := core.Analyze(app, core.Options{Refuter: serveCfg()})
	if res.Interrupted {
		t.Fatalf("analysis interrupted at %q", res.InterruptedStage)
	}
	return res
}

func TestFingerprintDeterministic(t *testing.T) {
	_, a := readDemo(t, corpus.IncrDemoEdit{})
	_, b := readDemo(t, corpus.IncrDemoEdit{})
	fa, fb := incremental.Compute(a), incremental.Compute(b)
	if fa.Shape != fb.Shape {
		t.Errorf("shape digest not deterministic: %s vs %s", fa.Shape, fb.Shape)
	}
	if len(fa.Methods) != len(fb.Methods) {
		t.Fatalf("method sets differ: %d vs %d", len(fa.Methods), len(fb.Methods))
	}
	for qn, m := range fa.Methods {
		if fb.Methods[qn] != m {
			t.Errorf("method %s digest not deterministic", qn)
		}
	}
	if _, ok := fa.Methods["Click2#onClick"]; !ok {
		t.Errorf("expected Click2#onClick in fingerprint, have %d methods", len(fa.Methods))
	}
}

func TestPlanReuseDecisions(t *testing.T) {
	_, base := readDemo(t, corpus.IncrDemoEdit{})
	baseFP := incremental.Compute(base)

	t.Run("identical", func(t *testing.T) {
		_, same := readDemo(t, corpus.IncrDemoEdit{})
		plan := incremental.PlanReuse(baseFP, incremental.Compute(same))
		if !plan.OK || len(plan.Changed) != 0 {
			t.Errorf("identical revision: want OK with no changes, got %+v", plan)
		}
	})
	t.Run("if-operand-edit", func(t *testing.T) {
		_, edited := readDemo(t, corpus.IncrDemoEdit{IfLine: "if c == int 0"})
		fp := incremental.Compute(edited)
		mb, me := baseFP.Methods["Click2#onClick"], fp.Methods["Click2#onClick"]
		if mb.Full == me.Full {
			t.Error("If edit must change the Full digest")
		}
		if mb.Skeleton != me.Skeleton {
			t.Error("If-operand edit must keep the Skeleton digest")
		}
		plan := incremental.PlanReuse(baseFP, fp)
		if !plan.OK {
			t.Fatalf("planner declined an If-operand edit: %+v", plan)
		}
		if len(plan.Changed) != 1 || plan.Changed[0] != "Click2#onClick" {
			t.Errorf("want Changed=[Click2#onClick], got %v", plan.Changed)
		}
	})
	t.Run("skeleton-visible-edit", func(t *testing.T) {
		_, edited := readDemo(t, corpus.IncrDemoEdit{ExtraStmt: "load w a f1"})
		plan := incremental.PlanReuse(baseFP, incremental.Compute(edited))
		if plan.OK {
			t.Errorf("added statement must decline, got %+v", plan)
		}
		if !strings.HasPrefix(plan.Reason, "skeleton:") {
			t.Errorf("want skeleton decline reason, got %q", plan.Reason)
		}
	})
	t.Run("shape-edit", func(t *testing.T) {
		_, edited := readDemo(t, corpus.IncrDemoEdit{ExtraField: "f3"})
		plan := incremental.PlanReuse(baseFP, incremental.Compute(edited))
		if plan.OK || plan.Reason != "shape" {
			t.Errorf("added field must decline with shape reason, got %+v", plan)
		}
	})
}

// TestApplyParity is the incremental-vs-full equivalence check: an
// If-operand edit applied against a warm baseline must re-refute only
// the pairs touching the edited callback and render a report
// byte-identical to a cold full run of the edited revision — including
// the verdict flip the edit causes (the guarded f1 read becomes
// feasible, so the f1 race must appear).
func TestApplyParity(t *testing.T) {
	tr := obs.New("test")
	baseRaw, baseApp := readDemo(t, corpus.IncrDemoEdit{})
	baseFP := incremental.Compute(baseApp)
	baseRes := fullAnalyze(t, baseApp)
	baseDigest := batch.RawDigest(baseRaw)
	if len(baseRes.RacyPairs) < 2 {
		t.Fatalf("IncrDemo needs >= 2 racy pairs to show partial re-refutation, got %d", len(baseRes.RacyPairs))
	}
	baseDoc := serve.RenderReport(baseDigest, baseRes)
	if bytes.Contains(baseDoc, []byte(`"field": ".f1"`)) {
		t.Fatalf("baseline must refute the guarded f1 race:\n%s", baseDoc)
	}
	if !bytes.Contains(baseDoc, []byte(`"field": ".f2"`)) {
		t.Fatalf("baseline must report the unguarded f2 race:\n%s", baseDoc)
	}

	base := &incremental.Baseline{
		Name: baseApp.Name, Digest: baseDigest, FP: baseFP, App: baseApp, Res: baseRes,
	}

	editRaw, editApp := readDemo(t, corpus.IncrDemoEdit{IfLine: "if c == int 0"})
	editFP := incremental.Compute(editApp)
	editDigest := batch.RawDigest(editRaw)
	stats, ok := base.Apply(editApp, editFP, editDigest, serveCfg(), tr)
	if !ok {
		t.Fatalf("Apply declined: %+v", stats.Plan)
	}
	if stats.PairsRerefuted < 1 {
		t.Error("the edited callback's pairs must be re-refuted")
	}
	if stats.PairsRerefuted >= stats.PairsTotal {
		t.Errorf("re-refuted %d of %d pairs; pairs not touching the edit must be reused",
			stats.PairsRerefuted, stats.PairsTotal)
	}
	if base.Digest != editDigest {
		t.Errorf("baseline digest not advanced: %s", base.Digest)
	}

	incDoc := serve.RenderReport(editDigest, base.Res)
	if !bytes.Contains(incDoc, []byte(`"field": ".f1"`)) {
		t.Errorf("the un-guarded f1 race must appear after the edit (verdict flip):\n%s", incDoc)
	}

	// A cold full run of the edited revision must render the same bytes,
	// and the reused baseline SHBG must digest identically to the graph
	// the cold run builds — the checked form of "the edit was invisible
	// to the happens-before stage".
	_, freshApp := readDemo(t, corpus.IncrDemoEdit{IfLine: "if c == int 0"})
	freshRes := fullAnalyze(t, freshApp)
	fullDoc := serve.RenderReport(editDigest, freshRes)
	if !bytes.Equal(incDoc, fullDoc) {
		t.Errorf("incremental report diverges from full run:\n-- incremental --\n%s\n-- full --\n%s", incDoc, fullDoc)
	}
	if got, want := base.Res.Graph.Fingerprint(), freshRes.Graph.Fingerprint(); got != want {
		t.Errorf("reused SHBG fingerprint %s != cold-run fingerprint %s", got, want)
	}
}

// TestApplyFallback: declined plans must leave the baseline untouched
// (not poisoned, digest unchanged) so the caller can run the full
// pipeline and replace it.
func TestApplyFallback(t *testing.T) {
	tr := obs.New("test")
	baseRaw, baseApp := readDemo(t, corpus.IncrDemoEdit{})
	base := &incremental.Baseline{
		Name:   baseApp.Name,
		Digest: batch.RawDigest(baseRaw),
		FP:     incremental.Compute(baseApp),
		App:    baseApp,
		Res:    fullAnalyze(t, baseApp),
	}
	wantDigest := base.Digest

	for _, tc := range []struct {
		name string
		ed   corpus.IncrDemoEdit
	}{
		{"skeleton", corpus.IncrDemoEdit{ExtraStmt: "load w a f1"}},
		{"shape", corpus.IncrDemoEdit{ExtraField: "f3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, app := readDemo(t, tc.ed)
			stats, ok := base.Apply(app, incremental.Compute(app), batch.RawDigest(raw), serveCfg(), tr)
			if ok {
				t.Fatal("Apply must decline a non-reusable revision")
			}
			if stats.Plan.OK {
				t.Errorf("declined Apply with OK plan: %+v", stats.Plan)
			}
			if base.Poisoned {
				t.Error("a planner decline must not poison the baseline")
			}
			if base.Digest != wantDigest {
				t.Errorf("declined Apply mutated the baseline digest: %s", base.Digest)
			}
		})
	}

	// An interrupted or partially-refuted baseline is never a reuse source.
	t.Run("partial-baseline", func(t *testing.T) {
		partial := &incremental.Baseline{
			Name: base.Name, Digest: base.Digest, FP: base.FP, App: base.App,
			Res: &core.Result{Interrupted: true},
		}
		if partial.CanApply() {
			t.Error("interrupted baseline must not be reusable")
		}
	})
}
