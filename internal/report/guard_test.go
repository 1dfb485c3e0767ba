package report_test

import (
	"bytes"
	"fmt"
	"testing"

	"sierra/internal/apk"
	"sierra/internal/appfile"
	"sierra/internal/batch"
	"sierra/internal/core"
	"sierra/internal/corpus"
	"sierra/internal/frontend"
	"sierra/internal/harness"
	"sierra/internal/incremental"
	"sierra/internal/ir"
	"sierra/internal/obs"
	"sierra/internal/shbg"
	"sierra/internal/symexec"
)

// guardFieldsReference is the whole-program walk report.Rank ran on
// every call before Finalize kept the guard set: fields loaded into a
// variable that an If in the same method tests.
func guardFieldsReference(prog *ir.Program) map[string]bool {
	out := map[string]bool{}
	// The current method's loads, chained per destination variable:
	// head[v] is the index+1 of the newest load into v, and each load
	// links to the one before it. Both are reused across methods.
	type load struct {
		field string
		next  int
	}
	var loads []load
	head := map[string]int{}
	prog.EachClass(func(c *ir.Class) {
		for _, m := range c.Methods {
			loads = loads[:0]
			clear(head)
			for _, blk := range m.Blocks {
				for _, s := range blk.Stmts {
					switch st := s.(type) {
					case *ir.Load:
						loads = append(loads, load{st.Field, head[st.Dst]})
						head[st.Dst] = len(loads)
					case *ir.StaticLoad:
						loads = append(loads, load{st.Field, head[st.Dst]})
						head[st.Dst] = len(loads)
					case *ir.If:
						for i := head[st.A]; i != 0; i = loads[i-1].next {
							out[loads[i-1].field] = true
						}
					}
				}
			}
		}
	})
	return out
}

// checkGuards holds prog.IsGuardField to the reference walk on every
// field the program loads (a guard field is always loaded) and on one
// field nothing loads.
func checkGuards(t *testing.T, name string, prog *ir.Program) {
	t.Helper()
	want := guardFieldsReference(prog)
	loaded := map[string]bool{"no-such-field": true}
	prog.EachClass(func(c *ir.Class) {
		for _, m := range c.Methods {
			for _, blk := range m.Blocks {
				for _, s := range blk.Stmts {
					switch st := s.(type) {
					case *ir.Load:
						loaded[st.Field] = true
					case *ir.StaticLoad:
						loaded[st.Field] = true
					}
				}
			}
		}
	})
	for f := range loaded {
		if got := prog.IsGuardField(f); got != want[f] {
			t.Errorf("%s: IsGuardField(%q) = %t, the reference walk says %t", name, f, got, want[f])
		}
	}
}

// TestGuardFieldsMatchReference holds the guard set Finalize keeps to
// the whole-program walk: on SynthLarge, the 20 paper apps and every
// scenario family at seeds 0–7, as generated and after harness
// generation; after every warm landing of the TestEditClassParity edit
// classes at both sizes; and on a hand-built program whose classes are
// still queued, before and after each Finalize.
func TestGuardFieldsMatchReference(t *testing.T) {
	check := func(name string, app *apk.App) {
		checkGuards(t, name, app.Program)
		harness.Generate(app)
		checkGuards(t, name+" with harness", app.Program)
	}
	check("SynthLarge", corpus.SynthLarge())
	for _, row := range corpus.PaperRows() {
		app, _ := corpus.NamedApp(row)
		check(row.Name, app)
	}
	for _, sc := range corpus.Scenarios() {
		for seed := int64(0); seed < 8; seed++ {
			name := fmt.Sprintf("%s-%d", sc.Name, seed)
			app, _ := sc.Generate(name, seed, nil)
			check(name, app)
		}
	}

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
	for _, groups := range []int{1, 3} {
		for _, e := range edits {
			name := fmt.Sprintf("g%d/%+v→%+v", groups, e.base, e.next)
			b := warmStageDemo(t, groups, e.base)
			raw, app := parseStageDemo(t, groups, e.next)
			b.ApplyStages(app, incremental.Compute(app), batch.RawDigest(raw), symexec.Config{Jobs: 1}, shbg.Options{}, obs.New("test"))
			checkGuards(t, name, b.App.Program)
		}
	}

	checkQueuedGuards(t)
}

func parseStageDemo(t *testing.T, groups int, ed corpus.StageDemoEdit) ([]byte, *apk.App) {
	t.Helper()
	raw := corpus.StageDemoText(groups, ed)
	app, err := appfile.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("parsing StageDemo: %v", err)
	}
	return raw, app
}

// warmStageDemo builds the baseline serve would hold after a cold run.
func warmStageDemo(t *testing.T, groups int, ed corpus.StageDemoEdit) *incremental.Baseline {
	t.Helper()
	raw, app := parseStageDemo(t, groups, ed)
	fp := incremental.Compute(app) // before harness generation adds classes
	res := core.Analyze(app, core.Options{Refuter: symexec.Config{Jobs: 1}, KeepPTAWarm: true})
	return &incremental.Baseline{Name: app.Name, Digest: batch.RawDigest(raw), FP: fp,
		App: app, Res: res, Warm: res.PTAWarm}
}

// checkQueuedGuards builds a program by hand and checks the guard set
// while its classes are queued and after each Finalize: a class
// registered, given a method, and given a body without its guard.
func checkQueuedGuards(t *testing.T) {
	// method loads field into g and branches on test.
	method := func(name, field, test string) *ir.Method {
		b := ir.NewMethodBuilder(name)
		b.Load("g", "this", field)
		b.Null("n")
		then, els := b.If(test, ir.CmpEQ, ir.NullOperand())
		b.SetBlock(then)
		b.Ret("")
		b.SetBlock(els)
		b.Ret("")
		return b.Build()
	}
	p := ir.NewProgram()
	frontend.InstallFramework(p)
	c := ir.NewClass("A", frontend.Object)
	c.AddMethod(method("m", "f", "g"))
	p.AddClass(c)
	checkGuards(t, "queued class", p)
	p.Finalize()
	checkGuards(t, "finalized class", p)
	c.AddMethod(method("n", "h", "g"))
	checkGuards(t, "queued method", p)
	p.Finalize()
	checkGuards(t, "finalized method", p)
	if err := c.Methods["m"].ReplaceBody(method("m", "f", "n")); err != nil {
		t.Fatal(err)
	}
	checkGuards(t, "queued body", p)
	if !p.IsGuardField("h") || p.IsGuardField("f") {
		t.Errorf("queued body: guards f=%t h=%t, want only h", p.IsGuardField("f"), p.IsGuardField("h"))
	}
	p.Finalize()
	checkGuards(t, "finalized body", p)
}
