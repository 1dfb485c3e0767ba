package shbg_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"sierra/internal/actions"
	"sierra/internal/apk"
	"sierra/internal/appfile"
	"sierra/internal/batch"
	"sierra/internal/core"
	"sierra/internal/corpus"
	"sierra/internal/harness"
	"sierra/internal/incremental"
	"sierra/internal/ir"
	"sierra/internal/obs"
	"sierra/internal/pointer"
	"sierra/internal/shbg"
	"sierra/internal/symexec"
)

// tenfoldSeeds is how many seeds of the ten-fold scenario family,
// table2-x10, the reference check takes; every other family takes 8.
// The race detector build lowers it (rules_race_test.go).
var tenfoldSeeds int64 = 8

// TestRulesMatchReference holds rules 4 and 5, which pair each spawned
// action only with its spawn index list, to the n² scans over every
// ordered pair of actions (reference_test.go): the same base-edge
// sequence, tallies, reachability query count and closed rows on
// SynthLarge, the 20 paper apps and every scenario family at seeds 0–7,
// and the same restricted re-derivation as Rebuild's on every
// TestEditClassParity edit class that patches the stages.
func TestRulesMatchReference(t *testing.T) {
	check := func(name string, app *apk.App) *shbg.Graph {
		reg, res := actions.Analyze(app, harness.Generate(app), pointer.ActionSensitivePolicy{K: 2})
		if d := shbg.DiffRulesReference(reg, res, shbg.Options{}); d != "" {
			t.Errorf("%s: %s", name, d)
		}
		return shbg.Build(reg, res, shbg.Options{})
	}
	// The corpus apps give rules 4 and 5 almost nothing to order, so two
	// fixtures make each rule order every pair of five posts.
	for _, helpers := range []bool{false, true} {
		rule := map[bool]shbg.Rule{false: shbg.RuleIntraProc, true: shbg.RuleInterProc}[helpers]
		if g := check(fmt.Sprintf("post-fan/helpers=%t", helpers), shbg.PostFanApp(5, helpers)); g.RuleCount(rule) != 10 {
			t.Errorf("post fan (helpers %t): %s ordered %d pairs, want 10", helpers, rule, g.RuleCount(rule))
		}
	}
	check("SynthLarge", corpus.SynthLarge())
	for _, row := range corpus.PaperRows() {
		app, _ := corpus.NamedApp(row)
		check(row.Name, app)
	}
	for _, sc := range corpus.Scenarios() {
		seeds := int64(8)
		if sc.Name == "table2-x10" {
			seeds = tenfoldSeeds
		}
		for seed := int64(0); seed < seeds; seed++ {
			name := fmt.Sprintf("%s-%d", sc.Name, seed)
			app, _ := sc.Generate(name, seed, nil)
			check(name, app)
		}
	}

	// The edit classes, as TestEditClassParity lists them; only the
	// classes whose landing patches the stages reach Rebuild.
	edits := []struct{ base, next corpus.StageDemoEdit }{
		{corpus.StageDemoEdit{}, corpus.StageDemoEdit{IfLine: "if c == int 0"}},
		{corpus.StageDemoEdit{}, corpus.StageDemoEdit{ExtraStmt: "load w a f1_0"}},
		{corpus.StageDemoEdit{}, corpus.StageDemoEdit{ExtraStmt: "const w int 42"}},
		{corpus.StageDemoEdit{}, corpus.StageDemoEdit{ExtraStmt: "new w Task1_0"}},
		{corpus.StageDemoEdit{}, corpus.StageDemoEdit{ExtraStmt: "binop w + c c"}},
		{corpus.StageDemoEdit{ExtraStmt: "binop w + c c"}, corpus.StageDemoEdit{}},
		{corpus.StageDemoEdit{}, corpus.StageDemoEdit{WithCall: true}},
		{corpus.StageDemoEdit{WithCall: true}, corpus.StageDemoEdit{}},
		{corpus.StageDemoEdit{}, corpus.StageDemoEdit{ExtraHandler: true}},
		{corpus.StageDemoEdit{ExtraHandler: true}, corpus.StageDemoEdit{}},
		{corpus.StageDemoEdit{}, corpus.StageDemoEdit{ExtraMethod: true}},
	}
	rebuilt := 0
	for _, groups := range []int{1, 3} {
		for _, e := range edits {
			name := fmt.Sprintf("g%d/%+v→%+v", groups, e.base, e.next)
			if checkRederive(t, name, groups, e.base, e.next) {
				rebuilt++
			}
		}
	}
	if rebuilt != 10 {
		t.Errorf("%d edit-class revisions reached Rebuild, want the 5 patching classes at 2 sizes", rebuilt)
	}
}

// checkRederive lands one StageDemo revision on a warm baseline the way
// serve does and, when the landing patched the stages, re-runs Rebuild's
// restricted re-derivation for the same dirty set — the actions whose
// roots reach a changed method through call edges, which Rebuild's
// shbg.rows_patched must count — with the spawn index and with the
// reference. It reports whether the landing reached Rebuild.
func checkRederive(t *testing.T, name string, groups int, base, next corpus.StageDemoEdit) bool {
	t.Helper()
	parse := func(ed corpus.StageDemoEdit) ([]byte, *apk.App) {
		raw := corpus.StageDemoText(groups, ed)
		app, err := appfile.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: parsing StageDemo: %v", name, err)
		}
		return raw, app
	}
	baseRaw, baseApp := parse(base)
	fp := incremental.Compute(baseApp) // before harness generation adds classes
	res := core.Analyze(baseApp, core.Options{Refuter: symexec.Config{Jobs: 1}, KeepPTAWarm: true})
	b := &incremental.Baseline{Name: baseApp.Name, Digest: batch.RawDigest(baseRaw),
		FP: fp, App: baseApp, Res: res, Warm: res.PTAWarm}
	nextRaw, nextApp := parse(next)
	tr := obs.New("test")
	st, ok := b.ApplyStages(nextApp, incremental.Compute(nextApp), batch.RawDigest(nextRaw), symexec.Config{Jobs: 1}, shbg.Options{}, tr)
	if !ok || len(st.Plan.Visible) == 0 {
		return false
	}
	changed := map[*ir.Method]bool{}
	for _, qn := range st.Plan.Changed {
		cls, meth, _ := strings.Cut(qn, "#")
		changed[b.App.Program.Class(cls).Methods[meth]] = true
	}
	dirty := reachingActions(b.Res.Registry, b.Res.PTA, changed)
	if got := tr.Counter("shbg.rows_patched"); got != int64(len(dirty)) {
		t.Errorf("%s: Rebuild patched %d rows, the dirty set here has %d", name, got, len(dirty))
	}
	if d := shbg.DiffRederiveReference(b.Res.Graph, b.Res.Registry, b.Res.PTA, shbg.Options{}, dirty); d != "" {
		t.Errorf("%s: restricted run: %s", name, d)
	}
	return true
}

// reachingActions returns the ids of the actions whose root methods, or
// any method reachable from them through the pointer result's call
// edges, are in changed.
func reachingActions(reg *actions.Registry, res *pointer.Result, changed map[*ir.Method]bool) map[int]bool {
	callees := res.CalleeMethods()
	out := map[int]bool{}
	for _, a := range reg.Actions() {
		seen := map[*ir.Method]bool{}
		stack := append([]*ir.Method(nil), a.Roots...)
		for len(stack) > 0 {
			m := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if m == nil || seen[m] {
				continue
			}
			seen[m] = true
			if changed[m] {
				out[a.ID] = true
				break
			}
			for _, blk := range m.Blocks {
				for si, s := range blk.Stmts {
					if _, ok := s.(*ir.Invoke); ok {
						stack = append(stack, callees(ir.Pos{Method: m, Block: blk.Index, Index: si})...)
					}
				}
			}
		}
	}
	return out
}
