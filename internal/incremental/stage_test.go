package incremental_test

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sierra/internal/apk"
	"sierra/internal/appfile"
	"sierra/internal/batch"
	"sierra/internal/core"
	"sierra/internal/corpus"
	"sierra/internal/incremental"
	"sierra/internal/ir/irtest"
	"sierra/internal/obs"
	"sierra/internal/serve"
	"sierra/internal/shbg"
	"sierra/internal/symexec"
)

func readStageDemo(t *testing.T, groups int, ed corpus.StageDemoEdit) ([]byte, *apk.App) {
	t.Helper()
	return parseStageDemo(t, corpus.StageDemoText(groups, ed))
}

func parseStageDemo(t *testing.T, raw []byte) ([]byte, *apk.App) {
	t.Helper()
	app, err := appfile.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("parsing StageDemo: %v", err)
	}
	return raw, app
}

// warmBaseline builds the baseline the serve daemon would hold after a
// cold analysis with KeepPTAWarm: fingerprint from the fresh parse,
// warm solver state retained. It refutes on one worker, unlike the
// applies (serveCfg), which re-refute on two.
func warmBaseline(t *testing.T, groups int, ed corpus.StageDemoEdit) *incremental.Baseline {
	t.Helper()
	raw, app := readStageDemo(t, groups, ed)
	fp := incremental.Compute(app)
	res := core.Analyze(app, core.Options{Refuter: symexec.Config{Jobs: 1}, KeepPTAWarm: true})
	if res.Interrupted {
		t.Fatalf("analysis interrupted at %q", res.InterruptedStage)
	}
	return &incremental.Baseline{
		Name: app.Name, Digest: batch.RawDigest(raw), FP: fp,
		App: app, Res: res, Warm: res.PTAWarm,
	}
}

// editClass is one edit class: a StageDemo revision pair and the
// landing the serve path must make for it.
type editClass struct {
	name string
	base corpus.StageDemoEdit
	next corpus.StageDemoEdit
	want string // "reuse" | "patch" | "cold"
}

// editClasses is the catalog TestEditClassParity lands, at every
// StageDemo size in editGroups.
var editClasses = []editClass{
	// Body-only edits the fixpoint stages cannot see: every stage reused.
	{"if-operand", corpus.StageDemoEdit{}, corpus.StageDemoEdit{IfLine: "if c == int 0"}, "reuse"},
	// Skeleton-visible dataflow sinks: stages patched.
	{"insert-load", corpus.StageDemoEdit{}, corpus.StageDemoEdit{ExtraStmt: "load w a f1_0"}, "patch"},
	{"insert-const", corpus.StageDemoEdit{}, corpus.StageDemoEdit{ExtraStmt: "const w int 42"}, "patch"},
	{"insert-new", corpus.StageDemoEdit{}, corpus.StageDemoEdit{ExtraStmt: "new w Task1_0"}, "patch"},
	{"insert-binop", corpus.StageDemoEdit{}, corpus.StageDemoEdit{ExtraStmt: "binop w + c c"}, "patch"},
	// Removing a BinOp is always provably inert.
	{"remove-binop", corpus.StageDemoEdit{ExtraStmt: "binop w + c c"}, corpus.StageDemoEdit{}, "patch"},
	// Call-graph edits shift action discovery: planned gate fallbacks.
	{"insert-call", corpus.StageDemoEdit{}, corpus.StageDemoEdit{WithCall: true}, "cold"},
	{"remove-call", corpus.StageDemoEdit{WithCall: true}, corpus.StageDemoEdit{}, "cold"},
	// Shape drift (declarations changed): planned planner fallbacks.
	{"handler-add", corpus.StageDemoEdit{}, corpus.StageDemoEdit{ExtraHandler: true}, "cold"},
	{"handler-remove", corpus.StageDemoEdit{ExtraHandler: true}, corpus.StageDemoEdit{}, "cold"},
	{"method-add", corpus.StageDemoEdit{}, corpus.StageDemoEdit{ExtraMethod: true}, "cold"},
}

// editGroups are the StageDemo sizes (activity groups) edits run at.
var editGroups = []int{1, 3}

// TestEditClassParity is the edit-class fuzzer: for every supported and
// every planned-fallback edit class, across several app sizes, the
// serve path (one ApplyStages call, then cold on a decline) must produce
// a report byte-identical to a cold run of the edited revision — and
// must land as planned for the class. It reads the landing the way
// perfbench's serve-edit does, from which landing counter moved, and
// requires exactly one to move per revision: incremental.applies (every
// stage reused; Plan.Visible empty), incremental.stage_applies (stages
// patched; Plan.Visible non-empty) or incremental.fallbacks (cold). A
// "patch" class exercises delta re-seeding, SHBG row patching, and pair
// diffing end to end; a "cold" class proves the gates fail closed
// instead of splicing something unsound. The baseline refutes on one
// worker, the applies on two and the cold run on three: the spliced and
// the re-refuted verdicts must agree whatever the width.
func TestEditClassParity(t *testing.T) {
	for _, groups := range editGroups {
		for _, c := range editClasses {
			t.Run(fmt.Sprintf("g%d/%s", groups, c.name), func(t *testing.T) {
				tr := obs.New("test")
				base := warmBaseline(t, groups, c.base)

				editRaw, editApp := readStageDemo(t, groups, c.next)
				editFP := incremental.Compute(editApp)
				editDigest := batch.RawDigest(editRaw)

				// The cold truth: a fresh full run of the edited revision.
				_, coldApp := readStageDemo(t, groups, c.next)
				coldRes := core.Analyze(coldApp, core.Options{Refuter: symexec.Config{Jobs: 3}})
				if coldRes.Interrupted {
					t.Fatalf("cold run interrupted at %q", coldRes.InterruptedStage)
				}
				coldDoc := serve.RenderReport(editDigest, coldRes)

				// Mirror the serve path.
				st, ok := base.ApplyStages(editApp, editFP, editDigest, serveCfg(), shbg.Options{}, tr)
				doc := coldDoc // a decline re-parses and runs cold; that IS coldDoc
				if ok {
					doc = serve.RenderReport(editDigest, base.Res)
				} else if base.Poisoned {
					t.Errorf("planned fallback must decline cleanly, not poison (reason %q)", st.Plan.Reason)
				}

				var got string
				moved := 0
				for _, l := range []struct{ counter, landing string }{
					{"incremental.applies", "reuse"},
					{"incremental.stage_applies", "patch"},
					{"incremental.fallbacks", "cold"},
				} {
					switch n := tr.Counter(l.counter); n {
					case 0:
					case 1:
						got = l.landing
						moved++
					default:
						t.Errorf("%s = %d for one revision", l.counter, n)
					}
				}
				if moved != 1 {
					t.Fatalf("%d landing counters moved for one revision, want exactly 1", moved)
				}
				planned := "cold"
				if ok {
					planned = map[bool]string{false: "reuse", true: "patch"}[len(st.Plan.Visible) > 0]
				}
				if got != planned {
					t.Errorf("counters say %s, but the plan (ok=%v, Visible=%v) says %s", got, ok, st.Plan.Visible, planned)
				}
				if got != c.want {
					t.Errorf("edit class %s landed on %s, want %s (reason %q)", c.name, got, c.want, st.Plan.Reason)
				}
				if ok {
					checkWarmLedger(t, base.Res.Ledger, got == "patch", tr)
				}
				// A spliced body's inserted New (insert-new) must get a
				// fresh site from the baseline's re-Finalize.
				if err := irtest.CheckSites(base.App.Program); err != nil {
					t.Errorf("baseline after %s: %v", got, err)
				}
				if err := irtest.CheckSites(coldApp.Program); err != nil {
					t.Errorf("cold run: %v", err)
				}
				if !bytes.Equal(doc, coldDoc) {
					t.Errorf("report not byte-identical to cold run:\n-- incremental --\n%s\n-- cold --\n%s", doc, coldDoc)
				}
			})
		}
	}
}

// checkWarmLedger holds a warm landing's ledger to the layers the apply
// ran: never harness or compare; cgpa, shbg and pairs exactly when the
// stages were patched; always refute and rank. Each layer that ran put
// its ledger time in its core.layer_ms histogram, as one sample. The
// layers sum to the total, which incremental.apply_ms recorded.
func checkWarmLedger(t *testing.T, lg core.Ledger, patched bool, tr *obs.Trace) {
	t.Helper()
	var sum time.Duration
	for l := range core.NumLayers {
		sum += lg.Layers[l]
		ran := l == core.Refute || l == core.Rank ||
			patched && (l == core.CGPA || l == core.SHBG || l == core.Pairs)
		if ran && lg.Layers[l] <= 0 || !ran && lg.Layers[l] != 0 {
			t.Errorf("warm ledger (patched: %t): layer %s = %v", patched, l, lg.Layers[l])
		}
		h, want := tr.Hist("core.layer_ms."+l.String()), int64(0)
		if ran {
			want = 1
		}
		if h.Count() != want || h.Sum() != float64(lg.Layers[l])/1e6 {
			t.Errorf("core.layer_ms.%s: %d samples summing to %v ms, want %d of the ledger's %v",
				l, h.Count(), h.Sum(), want, lg.Layers[l])
		}
	}
	if sum != lg.Total {
		t.Errorf("warm ledger layers sum to %v, total is %v", sum, lg.Total)
	}
	if h := tr.Hist("incremental.apply_ms"); h.Count() != 1 || h.Sum() != float64(lg.Total)/1e6 {
		t.Errorf("incremental.apply_ms: %d samples summing to %v ms, want the ledger total %v", h.Count(), h.Sum(), lg.Total)
	}
}

// TestStageStatsAccounting pins the splice arithmetic on the canonical
// sink-insert edit of a 6-group app: every pair is either spliced or
// re-refuted, at least one pair re-refutes (the edited listener's), the
// splice fraction dominates, the stages are patched, and the warm
// report is byte-identical to a cold run of the edited revision.
func TestStageStatsAccounting(t *testing.T) {
	tr := obs.New("test")
	edit := corpus.StageDemoEdit{ExtraStmt: "load w a f1_0"}
	base := warmBaseline(t, 6, corpus.StageDemoEdit{})
	editRaw, editApp := readStageDemo(t, 6, edit)
	editDigest := batch.RawDigest(editRaw)
	st, ok := base.ApplyStages(editApp, incremental.Compute(editApp), editDigest, serveCfg(), shbg.Options{}, tr)
	if !ok {
		t.Fatalf("stage apply declined: %+v", st.Plan)
	}
	_, coldApp := readStageDemo(t, 6, edit)
	warmDoc := serve.RenderReport(editDigest, base.Res)
	coldDoc := serve.RenderReport(editDigest, fullAnalyze(t, coldApp))
	if !bytes.Equal(warmDoc, coldDoc) {
		t.Errorf("warm report not byte-identical to cold run:\n-- warm --\n%s\n-- cold --\n%s", warmDoc, coldDoc)
	}
	if len(st.Plan.Visible) != 1 || tr.Counter("incremental.stage_applies") != 1 {
		t.Errorf("a one-method sink insert must patch the stages: plan %+v, stage_applies %d",
			st.Plan, tr.Counter("incremental.stage_applies"))
	}
	if st.PairsRerefuted+st.PairsSpliced != st.PairsTotal {
		t.Errorf("splice arithmetic: %d re-refuted + %d spliced != %d total",
			st.PairsRerefuted, st.PairsSpliced, st.PairsTotal)
	}
	if st.PairsRerefuted < 1 {
		t.Error("the edited listener's pairs must re-refute")
	}
	if st.PairsSpliced <= st.PairsRerefuted {
		t.Errorf("splices (%d) must dominate re-refutations (%d) on a one-listener edit of 6 groups",
			st.PairsSpliced, st.PairsRerefuted)
	}
}

// TestStagePoisonFallsBackCold: a poisoned baseline must refuse further
// incremental applies.
func TestStagePoisonFallsBackCold(t *testing.T) {
	tr := obs.New("test")
	base := warmBaseline(t, 1, corpus.StageDemoEdit{})
	base.Poisoned = true
	editRaw, editApp := readStageDemo(t, 1, corpus.StageDemoEdit{ExtraStmt: "load w a f1_0"})
	if _, ok := base.ApplyStages(editApp, incremental.Compute(editApp), batch.RawDigest(editRaw), serveCfg(), shbg.Options{}, tr); ok {
		t.Fatal("poisoned baseline accepted a stage apply")
	}
}

// liveOnceCtx is a context whose first Err poll reports it live and
// every later poll cancelled: a deadline that passes just after
// ApplyStages' admission check, mid-apply.
type liveOnceCtx struct {
	context.Context
	polls atomic.Int32
}

func (c *liveOnceCtx) Err() error {
	if c.polls.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

// TestInterruptedRefutationPoisons: once an apply has patched the
// baseline, a refutation that its context cuts short must poison the
// baseline and decline, not splice a partial verdict set — whether the
// stages were patched or reused (the latter on a baseline kept without
// warm solver state, which needs none).
func TestInterruptedRefutationPoisons(t *testing.T) {
	refCfg := serveCfg()

	t.Run("stages", func(t *testing.T) {
		tr := obs.New("test")
		base := warmBaseline(t, 1, corpus.StageDemoEdit{})
		editRaw, editApp := readStageDemo(t, 1, corpus.StageDemoEdit{ExtraStmt: "load w a f1_0"})
		refCfg.Ctx = &liveOnceCtx{Context: context.Background()}
		st, ok := base.ApplyStages(editApp, incremental.Compute(editApp), batch.RawDigest(editRaw), refCfg, shbg.Options{}, tr)
		if ok {
			t.Fatal("stage apply accepted an interrupted re-refutation")
		}
		if !base.Poisoned || st.Plan.Reason != "refute-interrupted" {
			t.Errorf("poisoned=%v reason=%q, want a baseline poisoned for refute-interrupted", base.Poisoned, st.Plan.Reason)
		}
	})
	t.Run("reuse", func(t *testing.T) {
		tr := obs.New("test")
		baseRaw, baseApp := readStageDemo(t, 1, corpus.StageDemoEdit{})
		base := &incremental.Baseline{
			Name: baseApp.Name, Digest: batch.RawDigest(baseRaw), FP: incremental.Compute(baseApp),
			App: baseApp, Res: fullAnalyze(t, baseApp),
		}
		editRaw, editApp := readStageDemo(t, 1, corpus.StageDemoEdit{IfLine: "if c == int 0"})
		refCfg.Ctx = &liveOnceCtx{Context: context.Background()}
		st, ok := base.ApplyStages(editApp, incremental.Compute(editApp), batch.RawDigest(editRaw), refCfg, shbg.Options{}, tr)
		if ok {
			t.Fatal("ApplyStages accepted an interrupted re-refutation")
		}
		if !base.Poisoned || st.Plan.Reason != "refute-interrupted" {
			t.Errorf("poisoned=%v reason=%q, want a baseline poisoned for refute-interrupted", base.Poisoned, st.Plan.Reason)
		}
	})
}

// TestCancelledApplyDeclines: a context already done at admission
// declines before anything is mutated, so the baseline stays usable and
// the same revision then lands under a live context.
func TestCancelledApplyDeclines(t *testing.T) {
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ed := range []corpus.StageDemoEdit{{IfLine: "if c == int 0"}, {ExtraStmt: "load w a f1_0"}} {
		tr := obs.New("test")
		base := warmBaseline(t, 1, corpus.StageDemoEdit{})
		editRaw, editApp := readStageDemo(t, 1, ed)
		fp, digest := incremental.Compute(editApp), batch.RawDigest(editRaw)
		refCfg := serveCfg()
		refCfg.Ctx = dead
		st, ok := base.ApplyStages(editApp, fp, digest, refCfg, shbg.Options{}, tr)
		if ok || base.Poisoned || st.Plan.Reason != "cancelled" || tr.Counter("incremental.fallbacks") != 1 {
			t.Fatalf("%+v: ok=%v poisoned=%v reason=%q fallbacks=%d, want one clean cancelled decline",
				ed, ok, base.Poisoned, st.Plan.Reason, tr.Counter("incremental.fallbacks"))
		}
		refCfg.Ctx = context.Background()
		if st, ok := base.ApplyStages(editApp, fp, digest, refCfg, shbg.Options{}, tr); !ok || base.Res.Interrupted {
			t.Errorf("%+v: live apply after a cancelled one: ok=%v reason=%q interrupted=%v", ed, ok, st.Plan.Reason, base.Res.Interrupted)
		}
	}
}

// TestPoolByteBudget: the baseline pool must evict by estimated
// resident bytes when a budget is set, never evicting the entry it is
// currently storing, and must expose the accounted total.
func TestPoolByteBudget(t *testing.T) {
	mk := func(name string, groups int) *incremental.Baseline {
		b := warmBaseline(t, groups, corpus.StageDemoEdit{})
		b.Name = name
		return b
	}
	a, b, c := mk("a", 1), mk("b", 1), mk("c", 1)
	per := a.ApproxBytes()
	if per <= 0 {
		t.Fatalf("ApproxBytes must be positive, got %d", per)
	}

	// Budget for two entries: storing the third must evict the LRU one.
	p := incremental.NewPool(10, 2*per+per/2)
	if ev := p.Store(a); ev != 0 {
		t.Fatalf("storing a evicted %d", ev)
	}
	if ev := p.Store(b); ev != 0 {
		t.Fatalf("storing b evicted %d", ev)
	}
	if ev := p.Store(c); ev != 1 {
		t.Fatalf("storing c must evict exactly the LRU entry, evicted %d", ev)
	}
	if p.Lookup("a") != nil {
		t.Error("a (LRU) should have been evicted")
	}
	if p.Lookup("b") == nil || p.Lookup("c") == nil {
		t.Error("b and c should survive a byte-budget eviction")
	}
	if got := p.Bytes(); got > 2*per+per/2 || got <= 0 {
		t.Errorf("accounted bytes %d out of range (0, %d]", got, 2*per+per/2)
	}

	// A single entry over budget is kept — the pool never evicts its
	// only (or just-stored) entry.
	small := incremental.NewPool(10, 1)
	if ev := small.Store(a); ev != 0 {
		t.Fatalf("sole over-budget entry must be kept, evicted %d", ev)
	}
	if small.Lookup("a") == nil {
		t.Error("sole entry evicted under byte pressure")
	}
}
