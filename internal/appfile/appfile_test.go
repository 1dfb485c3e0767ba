package appfile

import (
	"bufio"
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"sierra/internal/apk"
	"sierra/internal/core"
	"sierra/internal/corpus"
	"sierra/internal/ir"
)

// roundTrip serializes and reparses an app.
func roundTrip(t *testing.T, app *apk.App) *apk.App {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, app); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatalf("read: %v\n%s", err, buf.String())
	}
	return back
}

func appClasses(app *apk.App) int {
	n := 0
	for _, c := range app.Program.Classes() {
		if !c.Framework {
			n++
		}
	}
	return n
}

func TestRoundTripHandmadeApps(t *testing.T) {
	for _, mk := range []func() *apk.App{corpus.NewsApp, corpus.DatabaseApp, corpus.SudokuTimerApp, corpus.NullGuardApp} {
		app := mk()
		back := roundTrip(t, app)
		if back.Name != app.Name {
			t.Errorf("name %q != %q", back.Name, app.Name)
		}
		if appClasses(back) != appClasses(app) {
			t.Errorf("%s: class count %d != %d", app.Name, appClasses(back), appClasses(app))
		}
		if len(back.Manifest.Activities) != len(app.Manifest.Activities) {
			t.Errorf("%s: activities differ", app.Name)
		}
		if len(back.Layouts) != len(app.Layouts) {
			t.Errorf("%s: layouts differ", app.Name)
		}
	}
}

func TestRoundTripPreservesAnalysisResults(t *testing.T) {
	orig := corpus.NewsApp()
	back := roundTrip(t, corpus.NewsApp())
	r1 := core.Analyze(orig, core.Options{})
	r2 := core.Analyze(back, core.Options{})
	if r1.NumActions() != r2.NumActions() {
		t.Errorf("actions %d != %d", r1.NumActions(), r2.NumActions())
	}
	if len(r1.RacyPairs) != len(r2.RacyPairs) {
		t.Errorf("pairs %d != %d", len(r1.RacyPairs), len(r2.RacyPairs))
	}
	if r1.TrueRaces() != r2.TrueRaces() {
		t.Errorf("races %d != %d", r1.TrueRaces(), r2.TrueRaces())
	}
}

func TestRoundTripGeneratedApp(t *testing.T) {
	row, _ := corpus.RowByName("VuDroid")
	app, _ := corpus.NamedApp(row)
	back := roundTrip(t, app)
	if appClasses(back) != appClasses(app) {
		t.Errorf("class count %d != %d", appClasses(back), appClasses(app))
	}
}

func TestRoundTripStatements(t *testing.T) {
	orig := corpus.SudokuTimerApp()
	back := roundTrip(t, corpus.SudokuTimerApp())
	// Statement-level equality via the canonical printer.
	var b1, b2 bytes.Buffer
	if err := Write(&b1, orig); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b2, back); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("second round trip not a fixpoint")
	}
	for _, want := range []string{"if flag == bool true", "store a mAccumTime t", "call v _ v android.view.View postDelayed this delay"} {
		if !strings.Contains(b1.String(), want) {
			t.Errorf("serialization missing %q", want)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"view main 1 T -1",                 // view before layout
		"field C f",                        // field before class
		"block C m 0",                      // block outside method
		"class A\nmethod A m\nblock A m 5", // out-of-order block
		"class A\nmethod A m\nblock A m 0\nfrobnicate x",
		"app x\nactivity Missing", // validation: unknown activity class
		// Each of these used to panic instead of failing.
		"class A\nclass A",                                 // duplicate class
		"class java.lang.Object",                           // redeclared framework class
		"class A\nmethod A m\nmethod A m",                  // duplicate method
		"class A\nmethod A m\nblock A m 0\nconst a\tstr x", // unquoted literal after a tab
		// A class in the harness namespace once collided with the
		// activity's harness class and panicked the analysis.
		"app h\nactivity A\nclass A extends android.app.Activity\nclass sierra.harness.A",
		// A repeat of a parsed statement takes the shared-line path,
		// which must still reject it outside a block.
		"class A\nmethod A m\nblock A m 0\nload y this f\nret _\nmethod A n\nload y this f",
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("no error for %q", c)
		}
	}
}

// TestReadStringLiteralAfterAnySeparator: a string constant's literal is
// the rest of the line after the kind field, whatever separates the
// fields — the reader once split at the first " str " and so panicked
// on a tab before the kind.
func TestReadStringLiteralAfterAnySeparator(t *testing.T) {
	for _, line := range []string{
		"const a\tstr \"x\"",
		"const a str\t\"x\"",
		"const a\u00a0str  \"x\"",
		"const a str \"x\"",
	} {
		app, err := Read(strings.NewReader("class A\nmethod A m\nblock A m 0\n" + line))
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		got := app.Program.Class("A").Methods["m"].Blocks[0].Stmts[0]
		if c, ok := got.(*ir.Const); !ok || c.Dst != "a" || c.Kind != ir.ConstString || c.Str != "x" {
			t.Errorf("%q parsed as %v", line, got)
		}
	}
}

// TestReadLineBound: a line of up to 1 MiB - 1 bytes before its newline
// is read; a longer one fails with bufio.ErrTooLong, terminated or not
// — the bound of the bufio.Scanner the reader replaced, which refRead
// still uses.
func TestReadLineBound(t *testing.T) {
	comment := func(n int) string { return "#" + strings.Repeat("x", n-1) }
	for _, c := range []struct {
		name, text string
		tooLong    bool
	}{
		{"longest line", comment(maxLine) + "\napp a\n", false},
		{"longest last line", "app a\n" + comment(maxLine), false},
		{"longest CRLF line", comment(maxLine-1) + "\r\napp a\n", false},
		{"line over the bound", comment(maxLine+1) + "\napp a\n", true},
		{"last line over the bound", "app a\n" + comment(maxLine+1), true},
		{"CRLF line over the bound", comment(maxLine) + "\r\napp a\n", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(c.text))
			if _, refErr := refRead(strings.NewReader(c.text)); err != refErr {
				t.Errorf("Read: %v, refRead: %v", err, refErr)
			}
			switch {
			case c.tooLong && !errors.Is(err, bufio.ErrTooLong):
				t.Errorf("err = %v, want bufio.ErrTooLong", err)
			case !c.tooLong && err != nil:
				t.Errorf("err = %v", err)
			}
		})
	}
}

func TestReadMinimalApp(t *testing.T) {
	src := `
app mini
package com.mini
activity Main layout l
layout l
view l 1 android.view.View -1
view l 2 android.widget.Button 1
xmlcb l 2 onClick onTap
class Main extends android.app.Activity
method Main onCreate
block Main onCreate 0
ret _
method Main onTap params v
block Main onTap 0
ret _
`
	app, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if app.Name != "mini" || len(app.Manifest.Activities) != 1 {
		t.Fatalf("bad app %+v", app.Manifest)
	}
	if v := app.FindView("l", 2); v == nil || v.XMLCallbacks["onClick"] != "onTap" {
		t.Fatal("xml callback lost")
	}
	res := core.Analyze(app, core.Options{})
	if res.NumHarnesses() != 1 {
		t.Fatal("parsed app not analyzable")
	}
	found := false
	for _, a := range res.Registry.Actions() {
		if a.Callback == "onTap" {
			found = true
		}
	}
	if !found {
		t.Error("XML callback action missing after parse")
	}
}

func TestStmtLineCoversAllKinds(t *testing.T) {
	stmts := []ir.Stmt{
		&ir.New{Dst: "a", Class: "C", Site: -1},
		&ir.Const{Dst: "a", Kind: ir.ConstString, Str: "hi there"},
		&ir.BinOp{Dst: "a", Op: ir.OpXor, A: "b", B: "c"},
		&ir.Invoke{Kind: ir.InvokeStatic, Class: "C", Method: "m"},
		&ir.If{A: "x", Op: ir.CmpLE, B: ir.VarOperand("y")},
		// A destination named like the kind: the literal is not at the
		// line's first " str ".
		&ir.Const{Dst: "str", Kind: ir.ConstString, Str: "x str y"},
	}
	for _, s := range stmts {
		line := StmtLine(s)
		got, err := newReader().parseStmt(splitFields(nil, line), line)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if StmtLine(got) != line {
			t.Errorf("round trip %q -> %q", line, StmtLine(got))
		}
	}
}

func TestReadNeverPanicsOnTruncation(t *testing.T) {
	// Any line-prefix of a valid file must either parse or error — never
	// panic. This guards every "statement before block"-style invariant.
	var buf bytes.Buffer
	if err := Write(&buf, corpus.SudokuTimerApp()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	for n := 0; n <= len(lines); n += 3 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at %d lines: %v", n, r)
				}
			}()
			_, _ = Read(strings.NewReader(strings.Join(lines[:n], "\n")))
		}()
	}
}

func TestReadNeverPanicsOnFieldMutations(t *testing.T) {
	// Dropping random tokens from statement lines must not panic.
	var buf bytes.Buffer
	if err := Write(&buf, corpus.NewsApp()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	for i := 3; i < len(lines); i++ {
		mutated := append([]string(nil), lines...)
		f := strings.Fields(mutated[i])
		if len(f) > 1 {
			mutated[i] = strings.Join(f[:len(f)-1], " ") // drop last token
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic mutating line %d (%q): %v", i, lines[i], r)
				}
			}()
			_, _ = Read(strings.NewReader(strings.Join(mutated, "\n")))
		}()
	}
}

// TestReadRejectsCyclicHierarchy: a superclass chain or interface graph
// that leads back to itself would hang ResolveMethod and IsSubtype or
// overflow IsSubtype's stack, so Read must reject it with an error
// naming the cycle. An interface diamond is not a cycle.
func TestReadRejectsCyclicHierarchy(t *testing.T) {
	const body = `
app cyc
activity Main
method Main onCreate
block Main onCreate 0
new o X
call v _ o X run
ret _
`
	const main = "class Main extends android.app.Activity\n"
	cases := []struct {
		name, classes, cycle string
	}{
		{"self-extends", main + "class X extends X", "X extends X"},
		{"extends cycle", main + "class X extends Y\nclass Y extends X", "X extends Y extends X"},
		{"activity in cycle", "class Main extends X\nclass X extends Main", "Main extends X extends Main"},
		{"interface cycle", main + "class X implements I\nclass I implements J\nclass J implements I", "I implements J implements I"},
		{"mixed cycle", main + "class X extends Y\nclass Y implements X", "X extends Y implements X"},
		{"diamond", main + "class X implements I,J\nclass I implements K\nclass J implements K\nclass K", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(c.classes + "\n" + body))
			switch {
			case c.cycle == "" && err != nil:
				t.Fatalf("acyclic hierarchy rejected: %v", err)
			case c.cycle == "":
			case err == nil:
				t.Fatal("cyclic hierarchy accepted")
			case !strings.Contains(err.Error(), "cyclic type hierarchy: "+c.cycle):
				t.Fatalf("error %q does not name the cycle %q", err, c.cycle)
			}
		})
	}
}

// TestParseRetainsNoInput: no string the parsed app stores shares
// memory with the parsed text, so a long-lived app never pins the
// document it came from.
func TestParseRetainsNoInput(t *testing.T) {
	raw, err := Bytes(corpus.NewsApp())
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw) + "installs 1,000+\nclass Zz\nmethod Zz m params p,q\nblock Zz m 0\nconst s str \"plain\"\nret _\n"
	rd := newReader()
	if err := rd.parse(text); err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	hi := lo + uintptr(len(text))
	var pinned []string
	var walk func(v reflect.Value)
	seen := map[uintptr]bool{}
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key())
				walk(it.Value())
			}
		case reflect.String:
			s := v.String()
			if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); len(s) > 0 && p >= lo && p < hi {
				pinned = append(pinned, s)
			}
		}
	}
	walk(reflect.ValueOf(rd.app))
	if rd.app.Installs != "1,000+" {
		t.Fatalf("installs = %q", rd.app.Installs)
	}
	if len(pinned) > 0 {
		t.Errorf("%d stored strings point into the input, e.g. %q", len(pinned), pinned[0])
	}
}
