package corpus

import (
	"fmt"
	"strings"
)

// StageDemoEdit selects a variant of the StageDemo app text. The zero
// value is the baseline; each field is one of the edit classes the
// incremental apply is fuzzed against (all edits apply to group 0's
// Click2 listener):
type StageDemoEdit struct {
	// IfLine overrides Click2_0.onClick's branch condition. The default
	// guard "if c == int 1" over "const c int 0" makes the guarded f1_0
	// read infeasible (refuted); "if c == int 0" makes it reachable — an
	// If-operand-only edit, absorbed with every stage reused.
	IfLine string
	// ExtraStmt inserts a statement into Click2_0.onClick's fallthrough
	// block before its return — skeleton-visible. A dataflow sink (say
	// "load w a f1_0") is absorbed by patching the stages; an inserted
	// call ("call v _ a Act0 helper") is a planned fallback.
	ExtraStmt string
	// WithCall includes a helper call in that same block; a revision
	// pair {WithCall: true} → {} exercises the removed-call class
	// (planned fallback: call removal is never provably inert).
	WithCall bool
	// ExtraHandler adds a fourth listener class to group 0 (a handler
	// add — shape change, planned fallback; the reverse diff is a
	// handler remove).
	ExtraHandler bool
	// ExtraMethod adds an Act0 method (new-method shape change,
	// planned fallback).
	ExtraMethod bool
}

// StageDemoText renders a generated corpus app of `groups` independent
// listener trios: Click1_g spawns an AsyncTask writing fields f1_g/f2_g
// from the background, Click2_g reads f1_g behind a constant guard,
// Click3_g reads f2_g unguarded. The Task-write/Click2-read and
// Task-write/Click3-read pairs involve disjoint listener callbacks, so
// an edit inside Click2_0.onClick re-refutes the f1_0 pair and splices
// the f2_0 verdict. Groups share nothing but the activity, so an edit
// inside group 0 leaves every other group's racy pairs untouched — the
// splice fraction of an incremental re-analysis grows with `groups`,
// which is what perfbench's serve-edit workload scales on.
func StageDemoText(groups int, ed StageDemoEdit) []byte {
	if groups < 1 {
		groups = 1
	}
	ifLine := ed.IfLine
	if ifLine == "" {
		ifLine = "if c == int 1"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "app StageDemo%d\n", groups)
	b.WriteString("package gen.stagedemo\n")
	b.WriteString("activity Act0 layout layout0\n")
	b.WriteString("layout layout0\n")
	b.WriteString("view layout0 1000 android.view.View -1\n")
	for g := 0; g < groups; g++ {
		for i := 1; i <= 3; i++ {
			fmt.Fprintf(&b, "view layout0 %d android.widget.Button 1000\n", 1000+3*g+i)
		}
	}
	b.WriteString("class Act0 extends android.app.Activity\n")
	for g := 0; g < groups; g++ {
		fmt.Fprintf(&b, "field Act0 f1_%d\n", g)
		fmt.Fprintf(&b, "field Act0 f2_%d\n", g)
	}
	b.WriteString("method Act0 onCreate\nblock Act0 onCreate 0\n")
	for g := 0; g < groups; g++ {
		for i := 1; i <= 3; i++ {
			fmt.Fprintf(&b, "new l%d_%d Click%d_%d\n", i, g, i, g)
			fmt.Fprintf(&b, "call p _ l%d_%d Click%d_%d <init> this\n", i, g, i, g)
			fmt.Fprintf(&b, "const id%d_%d int %d\n", i, g, 1000+3*g+i)
			fmt.Fprintf(&b, "call v b%d_%d this Act0 findViewById id%d_%d\n", i, g, i, g)
			fmt.Fprintf(&b, "call v _ b%d_%d android.view.View setOnClickListener l%d_%d\n", i, g, i, g)
		}
	}
	if ed.ExtraHandler {
		b.WriteString("new l4_0 Click4_0\n")
		b.WriteString("call p _ l4_0 Click4_0 <init> this\n")
		b.WriteString("call v _ b1_0 android.view.View setOnClickListener l4_0\n")
	}
	b.WriteString("ret _\n")
	b.WriteString("method Act0 helper\nblock Act0 helper 0\nret _\n")
	if ed.ExtraMethod {
		b.WriteString("method Act0 extra\nblock Act0 extra 0\nret _\n")
	}
	for g := 0; g < groups; g++ {
		// Click1_g: spawn the task.
		fmt.Fprintf(&b, "class Click1_%d extends java.lang.Object implements android.view.View$OnClickListener\n", g)
		fmt.Fprintf(&b, "field Click1_%d act\n", g)
		fmt.Fprintf(&b, "method Click1_%d <init> params a\nblock Click1_%d <init> 0\nstore this act a\nret _\n", g, g)
		fmt.Fprintf(&b, "method Click1_%d onClick params v\nblock Click1_%d onClick 0\n", g, g)
		fmt.Fprintf(&b, "load a this act\nnew t Task1_%d\ncall p _ t Task1_%d <init> a\ncall v _ t Task1_%d execute\nret _\n", g, g, g)
		// Task1_g: background writes.
		fmt.Fprintf(&b, "class Task1_%d extends android.os.AsyncTask\n", g)
		fmt.Fprintf(&b, "field Task1_%d act\n", g)
		fmt.Fprintf(&b, "method Task1_%d <init> params a\nblock Task1_%d <init> 0\nstore this act a\nret _\n", g, g)
		fmt.Fprintf(&b, "method Task1_%d doInBackground\nblock Task1_%d doInBackground 0\n", g, g)
		fmt.Fprintf(&b, "load a this act\nconst one int 1\nstore a f1_%d one\nstore a f2_%d one\nret _\n", g, g)
		// Click2_g: guarded f1 read; group 0 carries the edits.
		fmt.Fprintf(&b, "class Click2_%d extends java.lang.Object implements android.view.View$OnClickListener\n", g)
		fmt.Fprintf(&b, "field Click2_%d act\n", g)
		fmt.Fprintf(&b, "method Click2_%d <init> params a\nblock Click2_%d <init> 0\nstore this act a\nret _\n", g, g)
		fmt.Fprintf(&b, "method Click2_%d onClick params v\nblock Click2_%d onClick 0 succ 1,2\n", g, g)
		b.WriteString("load a this act\nconst c int 0\n")
		if g == 0 {
			b.WriteString(ifLine + "\n")
		} else {
			b.WriteString("if c == int 1\n")
		}
		fmt.Fprintf(&b, "block Click2_%d onClick 1\nload y a f1_%d\nret _\n", g, g)
		fmt.Fprintf(&b, "block Click2_%d onClick 2\n", g)
		if g == 0 {
			if ed.WithCall {
				b.WriteString("call v _ a Act0 helper\n")
			}
			if ed.ExtraStmt != "" {
				b.WriteString(ed.ExtraStmt + "\n")
			}
		}
		b.WriteString("ret _\n")
		// Click3_g: unguarded f2 read.
		fmt.Fprintf(&b, "class Click3_%d extends java.lang.Object implements android.view.View$OnClickListener\n", g)
		fmt.Fprintf(&b, "field Click3_%d act\n", g)
		fmt.Fprintf(&b, "method Click3_%d <init> params a\nblock Click3_%d <init> 0\nstore this act a\nret _\n", g, g)
		fmt.Fprintf(&b, "method Click3_%d onClick params v\nblock Click3_%d onClick 0\n", g, g)
		fmt.Fprintf(&b, "load a this act\nload z a f2_%d\nret _\n", g)
	}
	if ed.ExtraHandler {
		b.WriteString("class Click4_0 extends java.lang.Object implements android.view.View$OnClickListener\n")
		b.WriteString("field Click4_0 act\n")
		b.WriteString("method Click4_0 <init> params a\nblock Click4_0 <init> 0\nstore this act a\nret _\n")
		b.WriteString("method Click4_0 onClick params v\nblock Click4_0 onClick 0\nload a this act\nload q a f1_0\nret _\n")
	}
	return []byte(b.String())
}
