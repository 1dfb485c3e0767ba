package incremental_test

import (
	"bytes"
	"fmt"
	"testing"

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
)

func readStageDemo(t *testing.T, groups int, ed corpus.StageDemoEdit) ([]byte, *apk.App) {
	t.Helper()
	raw := corpus.StageDemoText(groups, ed)
	app, err := appfile.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("parsing StageDemo: %v", err)
	}
	return raw, app
}

// warmBaseline builds the baseline the serve daemon would hold after a
// cold analysis with KeepPTAWarm: fingerprint from the fresh parse,
// warm solver state retained.
func warmBaseline(t *testing.T, groups int, ed corpus.StageDemoEdit) *incremental.Baseline {
	t.Helper()
	raw, app := readStageDemo(t, groups, ed)
	fp := incremental.Compute(app)
	res := core.Analyze(app, core.Options{Refuter: serveCfg(), KeepPTAWarm: true})
	if res.Interrupted {
		t.Fatalf("analysis interrupted at %q", res.InterruptedStage)
	}
	return &incremental.Baseline{
		Name: app.Name, Digest: batch.RawDigest(raw), FP: fp,
		App: app, Res: res, Warm: res.PTAWarm,
	}
}

// TestEditClassParity is the edit-class fuzzer: for every supported and
// every planned-fallback edit class, across several app sizes, the
// serve tiering (tier-1 whole-stage reuse, then tier-2 partial stage
// reuse, then cold) must produce a report byte-identical to a cold run
// of the edited revision — and must land on the planned tier for the
// class. A "tier2" class exercises delta re-seeding, SHBG row patching,
// and pair diffing end to end; a "fallback" class proves the gates fail
// closed instead of splicing something unsound.
func TestEditClassParity(t *testing.T) {
	type class struct {
		name string
		base corpus.StageDemoEdit
		next corpus.StageDemoEdit
		want string // "tier1" | "tier2" | "fallback"
	}
	classes := []class{
		// Body-only edits the fixpoint stages cannot see: whole-stage reuse.
		{"if-operand", corpus.StageDemoEdit{}, corpus.StageDemoEdit{IfLine: "if c == int 0"}, "tier1"},
		// Skeleton-visible dataflow sinks: partial stage reuse.
		{"insert-load", corpus.StageDemoEdit{}, corpus.StageDemoEdit{ExtraStmt: "load w a f1_0"}, "tier2"},
		{"insert-const", corpus.StageDemoEdit{}, corpus.StageDemoEdit{ExtraStmt: "const w int 42"}, "tier2"},
		{"insert-new", corpus.StageDemoEdit{}, corpus.StageDemoEdit{ExtraStmt: "new w Task1_0"}, "tier2"},
		{"insert-binop", corpus.StageDemoEdit{}, corpus.StageDemoEdit{ExtraStmt: "binop w + c c"}, "tier2"},
		// Removing a BinOp is always provably inert.
		{"remove-binop", corpus.StageDemoEdit{ExtraStmt: "binop w + c c"}, corpus.StageDemoEdit{}, "tier2"},
		// Call-graph edits shift action discovery: planned gate fallbacks.
		{"insert-call", corpus.StageDemoEdit{}, corpus.StageDemoEdit{WithCall: true}, "fallback"},
		{"remove-call", corpus.StageDemoEdit{WithCall: true}, corpus.StageDemoEdit{}, "fallback"},
		// Shape drift (declarations changed): planned planner fallbacks.
		{"handler-add", corpus.StageDemoEdit{}, corpus.StageDemoEdit{ExtraHandler: true}, "fallback"},
		{"handler-remove", corpus.StageDemoEdit{ExtraHandler: true}, corpus.StageDemoEdit{}, "fallback"},
		{"method-add", corpus.StageDemoEdit{}, corpus.StageDemoEdit{ExtraMethod: true}, "fallback"},
	}

	for _, groups := range []int{1, 3} {
		for _, c := range classes {
			t.Run(fmt.Sprintf("g%d/%s", groups, c.name), func(t *testing.T) {
				tr := obs.New("test")
				base := warmBaseline(t, groups, c.base)

				editRaw, editApp := readStageDemo(t, groups, c.next)
				editFP := incremental.Compute(editApp)
				editDigest := batch.RawDigest(editRaw)

				// The cold truth: a fresh full run of the edited revision.
				_, coldApp := readStageDemo(t, groups, c.next)
				coldRes := fullAnalyze(t, coldApp)
				coldDoc := serve.RenderReport(editDigest, coldRes)

				// Mirror the serve tiering.
				got := "fallback"
				var doc []byte
				if _, ok := base.Apply(editApp, editFP, editDigest, serveCfg(), tr); ok {
					got = "tier1"
					doc = serve.RenderReport(editDigest, base.Res)
				} else if _, ok := base.ApplyStages(editApp, editFP, editDigest, serveCfg(), shbg.Options{}, tr); ok {
					got = "tier2"
					doc = serve.RenderReport(editDigest, base.Res)
				} else {
					if base.Poisoned {
						t.Errorf("planned fallback must decline cleanly, not poison (reason %q)", base.Res.InterruptedStage)
					}
					// The caller re-parses and runs cold; that IS coldDoc.
					doc = coldDoc
				}
				if got != c.want {
					t.Errorf("edit class %s landed on %s, want %s", c.name, got, c.want)
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

// TestStageStatsAccounting pins the splice arithmetic on the canonical
// sink-insert edit: every pair is either spliced or re-refuted, at
// least one pair re-refutes (the edited listener's), the splice
// fraction dominates, and both stages report reuse.
func TestStageStatsAccounting(t *testing.T) {
	tr := obs.New("test")
	base := warmBaseline(t, 6, corpus.StageDemoEdit{})
	editRaw, editApp := readStageDemo(t, 6, corpus.StageDemoEdit{ExtraStmt: "load w a f1_0"})
	st, ok := base.ApplyStages(editApp, incremental.Compute(editApp), batch.RawDigest(editRaw), serveCfg(), shbg.Options{}, tr)
	if !ok {
		t.Fatalf("stage apply declined: %+v", st.Plan)
	}
	if !st.ReusedPTA || !st.ReusedSHBG {
		t.Errorf("both stages must report reuse: %+v", st)
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
// incremental applies of either tier.
func TestStagePoisonFallsBackCold(t *testing.T) {
	tr := obs.New("test")
	base := warmBaseline(t, 1, corpus.StageDemoEdit{})
	base.Poisoned = true
	editRaw, editApp := readStageDemo(t, 1, corpus.StageDemoEdit{ExtraStmt: "load w a f1_0"})
	if _, ok := base.ApplyStages(editApp, incremental.Compute(editApp), batch.RawDigest(editRaw), serveCfg(), shbg.Options{}, tr); ok {
		t.Fatal("poisoned baseline accepted a stage apply")
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
