package incremental_test

import (
	"bytes"
	"testing"

	"sierra/internal/apk"
	"sierra/internal/batch"
	"sierra/internal/core"
	"sierra/internal/corpus"
	"sierra/internal/incremental"
	"sierra/internal/obs"
	"sierra/internal/serve"
	"sierra/internal/symexec"
)

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
	_, a := readStageDemo(t, 1, corpus.StageDemoEdit{})
	_, b := readStageDemo(t, 1, corpus.StageDemoEdit{})
	fa, fb := incremental.Compute(a), incremental.Compute(b)
	if fa.Shape != fb.Shape {
		t.Errorf("shape digest not deterministic: %x vs %x", fa.Shape, fb.Shape)
	}
	if len(fa.Methods) != len(fb.Methods) {
		t.Fatalf("method sets differ: %d vs %d", len(fa.Methods), len(fb.Methods))
	}
	for qn, m := range fa.Methods {
		if fb.Methods[qn] != m {
			t.Errorf("method %s digest not deterministic", qn)
		}
	}
	if _, ok := fa.Methods["Click2_0#onClick"]; !ok {
		t.Errorf("expected Click2_0#onClick in fingerprint, have %d methods", len(fa.Methods))
	}
}

// TestPlanReuseDecisions pins the planner's reuse-or-patch split: an
// If-operand edit changes a method without changing its skeleton (every
// stage reused), an inserted statement is visible to the fixpoint
// stages (stages patched), and a declaration change declines.
func TestPlanReuseDecisions(t *testing.T) {
	_, base := readStageDemo(t, 1, corpus.StageDemoEdit{})
	baseFP := incremental.Compute(base)
	const edited = "Click2_0#onClick"

	t.Run("identical", func(t *testing.T) {
		_, same := readStageDemo(t, 1, corpus.StageDemoEdit{})
		plan := incremental.PlanEdit(baseFP, incremental.Compute(same))
		if !plan.OK || len(plan.Changed) != 0 || len(plan.Visible) != 0 {
			t.Errorf("identical revision: want OK with no changes, got %+v", plan)
		}
	})
	t.Run("if-operand-edit", func(t *testing.T) {
		_, next := readStageDemo(t, 1, corpus.StageDemoEdit{IfLine: "if c == int 0"})
		fp := incremental.Compute(next)
		mb, me := baseFP.Methods[edited], fp.Methods[edited]
		if mb.Full == me.Full {
			t.Error("If edit must change the Full digest")
		}
		if mb.Skeleton != me.Skeleton {
			t.Error("If-operand edit must keep the Skeleton digest")
		}
		plan := incremental.PlanEdit(baseFP, fp)
		if !plan.OK {
			t.Fatalf("planner declined an If-operand edit: %+v", plan)
		}
		if len(plan.Changed) != 1 || plan.Changed[0] != edited {
			t.Errorf("want Changed=[%s], got %v", edited, plan.Changed)
		}
		if len(plan.Visible) != 0 {
			t.Errorf("an If-operand edit is invisible to the fixpoint stages, got Visible=%v", plan.Visible)
		}
	})
	t.Run("skeleton-visible-edit", func(t *testing.T) {
		_, next := readStageDemo(t, 1, corpus.StageDemoEdit{ExtraStmt: "load w a f1_0"})
		plan := incremental.PlanEdit(baseFP, incremental.Compute(next))
		if !plan.OK {
			t.Fatalf("planner declined a shape-equal edit: %+v", plan)
		}
		if len(plan.Visible) != 1 || plan.Visible[0] != edited || len(plan.Changed) != 1 {
			t.Errorf("added statement: want Changed=Visible=[%s], got %+v", edited, plan)
		}
	})
	t.Run("shape-edit", func(t *testing.T) {
		_, next := readStageDemo(t, 1, corpus.StageDemoEdit{ExtraMethod: true})
		plan := incremental.PlanEdit(baseFP, incremental.Compute(next))
		if plan.OK || plan.Reason != "shape" {
			t.Errorf("added method must decline with shape reason, got %+v", plan)
		}
	})
	t.Run("field-edit", func(t *testing.T) {
		_, next := parseStageDemo(t, fieldOnlyEdit(t))
		plan := incremental.PlanEdit(baseFP, incremental.Compute(next))
		if plan.OK || plan.Reason != "shape" {
			t.Errorf("added field must decline with shape reason, got %+v", plan)
		}
	})
}

// fieldOnlyEdit is the one-group StageDemo with one more field declared
// on Act0. No body reads or writes it, so only the shape's field lines
// can see the edit.
func fieldOnlyEdit(t *testing.T) []byte {
	t.Helper()
	base := corpus.StageDemoText(1, corpus.StageDemoEdit{})
	raw := bytes.Replace(base, []byte("field Act0 f2_0\n"), []byte("field Act0 f2_0\nfield Act0 f3\n"), 1)
	if bytes.Equal(raw, base) {
		t.Fatal("StageDemo no longer declares field Act0 f2_0")
	}
	return raw
}

// TestApplyParity is the incremental-vs-full equivalence check: an
// If-operand edit applied against a warm baseline must re-refute only
// the pairs touching the edited callback and render a report
// byte-identical to a cold full run of the edited revision — including
// the verdict flip the edit causes (the guarded f1 read becomes
// feasible, so the f1 race must appear).
func TestApplyParity(t *testing.T) {
	tr := obs.New("test")
	baseRaw, baseApp := readStageDemo(t, 1, corpus.StageDemoEdit{})
	baseFP := incremental.Compute(baseApp)
	baseRes := fullAnalyze(t, baseApp)
	baseDigest := batch.RawDigest(baseRaw)
	if len(baseRes.RacyPairs) < 2 {
		t.Fatalf("StageDemo1 needs >= 2 racy pairs to show partial re-refutation, got %d", len(baseRes.RacyPairs))
	}
	baseDoc := serve.RenderReport(baseDigest, baseRes)
	if bytes.Contains(baseDoc, []byte(`"field": ".f1_0"`)) {
		t.Fatalf("baseline must refute the guarded f1_0 race:\n%s", baseDoc)
	}
	if !bytes.Contains(baseDoc, []byte(`"field": ".f2_0"`)) {
		t.Fatalf("baseline must report the unguarded f2_0 race:\n%s", baseDoc)
	}

	base := &incremental.Baseline{
		Name: baseApp.Name, Digest: baseDigest, FP: baseFP, App: baseApp, Res: baseRes,
	}

	editRaw, editApp := readStageDemo(t, 1, corpus.StageDemoEdit{IfLine: "if c == int 0"})
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
	if !bytes.Contains(incDoc, []byte(`"field": ".f1_0"`)) {
		t.Errorf("the un-guarded f1_0 race must appear after the edit (verdict flip):\n%s", incDoc)
	}

	// A cold full run of the edited revision must render the same bytes,
	// and the reused baseline SHBG must digest identically to the graph
	// the cold run builds — the checked form of "the edit was invisible
	// to the happens-before stage".
	_, freshApp := readStageDemo(t, 1, corpus.StageDemoEdit{IfLine: "if c == int 0"})
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
// pipeline and replace it. Apply is the reuse-only restriction of
// ApplyStages, so it declines a visible edit too, without counting a
// fallback: its caller goes on to ApplyStages, not to a cold run.
func TestApplyFallback(t *testing.T) {
	baseRaw, baseApp := readStageDemo(t, 1, corpus.StageDemoEdit{})
	base := &incremental.Baseline{
		Name:   baseApp.Name,
		Digest: batch.RawDigest(baseRaw),
		FP:     incremental.Compute(baseApp),
		App:    baseApp,
		Res:    fullAnalyze(t, baseApp),
	}
	wantDigest := base.Digest

	for _, tc := range []struct {
		name      string
		raw       []byte
		reason    string
		fallbacks int64
	}{
		{"skeleton", corpus.StageDemoText(1, corpus.StageDemoEdit{ExtraStmt: "load w a f1_0"}), "skeleton:Click2_0#onClick", 0},
		{"shape", corpus.StageDemoText(1, corpus.StageDemoEdit{ExtraMethod: true}), "shape", 1},
		{"shape-field", fieldOnlyEdit(t), "shape", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := obs.New("test")
			raw, app := parseStageDemo(t, tc.raw)
			stats, ok := base.Apply(app, incremental.Compute(app), batch.RawDigest(raw), serveCfg(), tr)
			if ok {
				t.Fatal("Apply must decline a non-reusable revision")
			}
			if stats.Plan.OK || stats.Plan.Reason != tc.reason {
				t.Errorf("declined Apply: want reason %q, got %+v", tc.reason, stats.Plan)
			}
			if got := tr.Counter("incremental.fallbacks"); got != tc.fallbacks {
				t.Errorf("incremental.fallbacks = %d, want %d", got, tc.fallbacks)
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
