package appfile_test

import (
	"bytes"
	"testing"

	"sierra/internal/apk"
	"sierra/internal/appfile"
	"sierra/internal/batch"
	"sierra/internal/core"
	"sierra/internal/corpus"
	"sierra/internal/incremental"
	"sierra/internal/ir"
	"sierra/internal/ir/irtest"
	"sierra/internal/shbg"
	"sierra/internal/symexec"
)

func read(t *testing.T, raw []byte) *apk.App {
	t.Helper()
	app, err := appfile.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func paperAppBytes(t testing.TB, name string) []byte {
	t.Helper()
	row, ok := corpus.RowByName(name)
	if !ok {
		t.Fatalf("%s missing from the corpus", name)
	}
	app, _ := corpus.NamedApp(row)
	raw, err := appfile.Bytes(app)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestReadSharesRepeatedStatements: every repeat of a statement line
// other than new — in another block, method or class, with other
// surrounding whitespace — is the object parsed at its first sight,
// while each new line is its own statement with its own site.
func TestReadSharesRepeatedStatements(t *testing.T) {
	app := read(t, []byte(`app s
class A
field A f
method A m
block A m 0 succ 1
load y this f
new o A
binop acc + acc x
block A m 1
	load y this f
new o A
binop acc + acc x
ret _
class B
method B n
block B n 0
binop acc + acc x
new o A
ret _
`))
	m := app.Program.Class("A").Methods["m"]
	b0, b1 := m.Blocks[0].Stmts, m.Blocks[1].Stmts
	bn := app.Program.Class("B").Methods["n"].Blocks[0].Stmts
	if b0[0] != b1[0] {
		t.Error("repeated load lines are distinct objects")
	}
	if b0[2] != b1[2] || b0[2] != bn[0] {
		t.Error("binop lines repeated across blocks and classes are distinct objects")
	}
	news := []*ir.New{b0[1].(*ir.New), b1[1].(*ir.New), bn[1].(*ir.New)}
	sites := map[int]bool{}
	for i, n := range news {
		for _, prev := range news[:i] {
			if n == prev {
				t.Fatalf("new line %d shares an earlier new's object", i)
			}
		}
		sites[n.Site] = true
	}
	if len(sites) != len(news) {
		t.Errorf("new sites %v, want %d distinct", sites, len(news))
	}
}

// stmtLines renders every statement object of the programs, keyed by
// identity, so a later render shows any statement written since.
func stmtLines(ps ...*ir.Program) map[ir.Stmt]string {
	out := map[ir.Stmt]string{}
	for _, p := range ps {
		for _, c := range p.Classes() {
			for _, m := range c.Methods {
				for _, b := range m.Blocks {
					for _, s := range b.Stmts {
						out[s] = appfile.StmtLine(s)
					}
				}
			}
		}
	}
	return out
}

func checkUnchanged(t *testing.T, what string, snap map[ir.Stmt]string) {
	t.Helper()
	for s, line := range snap {
		if got := appfile.StmtLine(s); got != line {
			t.Errorf("%s rewrote statement %q to %q", what, line, got)
		}
	}
}

// countPositions counts the statement positions of p.
func countPositions(p *ir.Program) int {
	n := 0
	for _, c := range p.Classes() {
		for _, m := range c.Methods {
			n += m.NumStmts()
		}
	}
	return n
}

// TestAnalysisNeverWritesStatements pins the rule that makes sharing
// sound: after construction nothing writes a statement except New.Site
// (which no line shows and no two positions share). Every statement
// object of a parsed paper app, and of each revision of a StageDemo
// lineage, renders the same before and after full analysis and
// incremental applies that reuse and that patch the stages, both of
// which transplant donor bodies.
func TestAnalysisNeverWritesStatements(t *testing.T) {
	app := read(t, paperAppBytes(t, "SuperGenPass"))
	snap := stmtLines(app.Program)
	if len(snap) >= countPositions(app.Program) {
		t.Fatalf("%d statement objects for %d positions: nothing shared", len(snap), countPositions(app.Program))
	}
	core.Analyze(app, core.Options{})
	checkUnchanged(t, "core.Analyze", snap)

	refute := symexec.Config{Jobs: 2}
	rev := func(ed corpus.StageDemoEdit) ([]byte, *apk.App) {
		raw := corpus.StageDemoText(2, ed)
		return raw, read(t, raw)
	}
	raw, baseApp := rev(corpus.StageDemoEdit{})
	snap = stmtLines(baseApp.Program)
	fp := incremental.Compute(baseApp) // before harness classes join
	res := core.Analyze(baseApp, core.Options{Refuter: refute, KeepPTAWarm: true})
	checkUnchanged(t, "core.Analyze", snap)
	base := &incremental.Baseline{
		Name: baseApp.Name, Digest: batch.RawDigest(raw), FP: fp,
		App: baseApp, Res: res, Warm: res.PTAWarm,
	}
	lineage := []struct {
		ed    corpus.StageDemoEdit
		patch bool
	}{
		{corpus.StageDemoEdit{IfLine: "if c == int 0"}, false},
		{corpus.StageDemoEdit{IfLine: "if c == int 0", ExtraStmt: "new w Task1_0"}, true},
		{corpus.StageDemoEdit{ExtraStmt: "new w Task1_0"}, false},
	}
	for _, step := range lineage {
		raw, next := rev(step.ed)
		snap := stmtLines(base.App.Program, next.Program)
		fp, digest := incremental.Compute(next), batch.RawDigest(raw)
		st, ok := base.ApplyStages(next, fp, digest, refute, shbg.Options{}, nil)
		if !ok || (len(st.Plan.Visible) > 0) != step.patch {
			t.Fatalf("%+v: want an apply with patch=%v, got ok=%v plan %+v", step.ed, step.patch, ok, st.Plan)
		}
		name := "reusing apply"
		if step.patch {
			name = "patching apply"
		}
		checkUnchanged(t, name, snap)
		if err := irtest.CheckSites(base.App.Program); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestReadAllocationsTrackDistinctLines is the guard on sharing: Astrid
// is ~217k lines, nearly all of them repeats of a few padding lines, so
// a reader that gives each statement line its own object makes several
// allocations per four lines, and one that shares makes far fewer. A
// change that puts per-position state back into statements fails here.
func TestReadAllocationsTrackDistinctLines(t *testing.T) {
	raw := paperAppBytes(t, "Astrid")
	lines := bytes.Count(raw, []byte("\n"))
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := appfile.Read(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= float64(lines/4) {
		t.Errorf("Read(Astrid) made %.0f allocations for %d lines, want < %d", allocs, lines, lines/4)
	}
}
