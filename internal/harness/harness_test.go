package harness

import (
	"fmt"
	"strings"
	"testing"

	"sierra/internal/apk"
	"sierra/internal/appfile"
	"sierra/internal/cfg"
	"sierra/internal/corpus"
	"sierra/internal/frontend"
	"sierra/internal/ir"
)

func TestGenerateNewsAppHarness(t *testing.T) {
	app := corpus.NewsApp()
	hs := Generate(app)
	if len(hs) != 1 {
		t.Fatalf("harnesses = %d, want 1", len(hs))
	}
	h := hs[0]
	if h.Activity != "NewsActivity" || h.Method == nil {
		t.Fatalf("bad harness %+v", h)
	}
	if !IsSynthetic(h.Method.Class.Name) {
		t.Errorf("harness class %s not marked synthetic", h.Method.Class.Name)
	}
	// Lifecycle skeleton: 7 distinct callbacks, onStart and onResume twice.
	counts := map[string]int{}
	for _, s := range h.Lifecycle {
		counts[s.Callback]++
		if !s.Pos.Valid() {
			t.Errorf("site %v has invalid pos", s)
		}
	}
	want := map[string]int{
		"onCreate": 1, "onStart": 2, "onResume": 2,
		"onPause": 1, "onStop": 1, "onRestart": 1, "onDestroy": 1,
	}
	for cb, n := range want {
		if counts[cb] != n {
			t.Errorf("lifecycle %s sites = %d, want %d", cb, counts[cb], n)
		}
	}
	// GUI discovery: the activity registers onClick (button) and
	// onScroll (recycler) in onCreate.
	cbs := map[string]bool{}
	for _, slot := range h.GUI {
		cbs[slot.Callback] = true
		if !slot.Pos.Valid() {
			t.Errorf("slot %s has invalid pos", slot.Callback)
		}
		if slot.Parent != -1 {
			t.Errorf("slot %s should be top-level", slot.Callback)
		}
		if !slot.BindActivity {
			t.Errorf("slot %s registered with this, should bind activity", slot.Callback)
		}
		if len(slot.Classes) != 1 || slot.Classes[0] != "NewsActivity" {
			t.Errorf("slot %s classes = %v", slot.Callback, slot.Classes)
		}
	}
	if !cbs["onClick"] || !cbs["onScroll"] {
		t.Fatalf("discovered callbacks = %v, want onClick and onScroll", cbs)
	}
}

func TestHarnessLifecycleDominance(t *testing.T) {
	app := corpus.SudokuTimerApp()
	h := Generate(app)[0]
	dom := cfg.MethodDominators(h.Method)

	site := func(cb string, n int) ir.Pos {
		s, ok := h.Site(cb, n)
		if !ok {
			t.Fatalf("missing site %s %d", cb, n)
		}
		return s.Pos
	}
	mustDom := func(a, b ir.Pos, desc string) {
		t.Helper()
		if !cfg.StmtDominates(dom, a, b) {
			t.Errorf("%s: expected dominance", desc)
		}
	}
	mustNotDom := func(a, b ir.Pos, desc string) {
		t.Helper()
		if cfg.StmtDominates(dom, a, b) {
			t.Errorf("%s: unexpected dominance", desc)
		}
	}

	// Fig 5 relations via harness CFG dominance.
	mustDom(site("onCreate", 1), site("onDestroy", 1), "onCreate ≺ onDestroy")
	mustDom(site("onStart", 1), site("onStop", 1), `onStart "1" ≺ onStop`)
	mustDom(site("onResume", 1), site("onPause", 1), `onResume "1" ≺ onPause`)
	mustDom(site("onPause", 1), site("onResume", 2), `onPause ≺ onResume "2"`)
	mustDom(site("onStop", 1), site("onStart", 2), `onStop ≺ onStart "2"`)
	mustNotDom(site("onResume", 2), site("onPause", 1), `onResume "2" must not dominate onPause`)
	mustNotDom(site("onStart", 2), site("onStop", 1), `onStart "2" must not dominate onStop`)
	mustNotDom(site("onDestroy", 1), site("onCreate", 1), "onDestroy must not dominate onCreate")
}

func TestHarnessGUIDominatedByOnResume(t *testing.T) {
	app := corpus.NewsApp()
	h := Generate(app)[0]
	dom := cfg.MethodDominators(h.Method)
	onResume1, _ := h.Site("onResume", 1)
	for _, slot := range h.GUI {
		if !cfg.StmtDominates(dom, onResume1.Pos, slot.Pos) {
			t.Errorf("onResume should dominate GUI slot %s", slot.Callback)
		}
		if cfg.StmtDominates(dom, slot.Pos, onResume1.Pos) {
			t.Errorf("GUI slot %s must not dominate onResume", slot.Callback)
		}
	}
	// GUI slots are mutually unordered (separate switch arms).
	if len(h.GUI) >= 2 {
		a, b := h.GUI[0].Pos, h.GUI[1].Pos
		if cfg.StmtDominates(dom, a, b) || cfg.StmtDominates(dom, b, a) {
			t.Error("top-level GUI slots must be mutually unordered")
		}
	}
}

// nestedApp registers a second listener inside the first callback, which
// must nest the slots (Fig 6's onClick2 ≺ onClick3).
func nestedRegistrationApp() *ir.Program {
	p := ir.NewProgram()
	frontend.InstallFramework(p)
	act := ir.NewClass("A", frontend.ActivityClass, frontend.OnClickListener)
	act.Fields = []string{"btn2"}
	b := ir.NewMethodBuilder(frontend.OnCreate)
	b.Int("id", 1)
	b.Call("btn", "this", "A", frontend.FindViewByID, "id")
	b.Call("", "btn", frontend.ViewClass, frontend.SetOnClickListener, "this")
	b.Ret("")
	act.AddMethod(b.Build())
	cb := ir.NewMethodBuilder(frontend.OnClick, "v")
	cb.Int("id2", 2)
	cb.Call("btn2", "this", "A", frontend.FindViewByID, "id2")
	cb.NewObj("l2", "Inner")
	cb.Call("", "btn2", frontend.ViewClass, frontend.SetOnLongClickListener, "l2")
	cb.Ret("")
	act.AddMethod(cb.Build())
	p.AddClass(act)

	inner := ir.NewClass("Inner", frontend.Object, frontend.OnLongClickListener)
	lb := ir.NewMethodBuilder(frontend.OnLongClick, "v")
	lb.Ret("")
	inner.AddMethod(lb.Build())
	p.AddClass(inner)
	return p
}

func TestNestedRegistrationNestsSlots(t *testing.T) {
	p := nestedRegistrationApp()
	p.Finalize()
	app := appFor(p, "A")
	h := Generate(app)[0]

	var click, long *GUISlot
	for _, s := range h.GUI {
		switch s.Callback {
		case frontend.OnClick:
			click = s
		case frontend.OnLongClick:
			long = s
		}
	}
	if click == nil || long == nil {
		t.Fatalf("slots missing: %+v", h.GUI)
	}
	if click.Parent != -1 {
		t.Errorf("onClick should be top-level, parent = %d", click.Parent)
	}
	wantParent := -1
	for i, s := range h.GUI {
		if s == click {
			wantParent = i
		}
	}
	if long.Parent != wantParent {
		t.Errorf("onLongClick parent = %d, want %d (the onClick slot)", long.Parent, wantParent)
	}
	if len(long.Classes) != 1 || long.Classes[0] != "Inner" {
		t.Errorf("onLongClick classes = %v, want [Inner]", long.Classes)
	}
	// Nesting shows up as dominance in the harness CFG.
	dom := cfg.MethodDominators(h.Method)
	if !cfg.StmtDominates(dom, click.Pos, long.Pos) {
		t.Error("parent slot invocation should dominate nested slot invocation")
	}
}

// TestIdenticalRegistrationsKeepTheirSlots: the app reader shares one
// statement object between byte-identical lines, so two identical
// registration calls in one block are one *ir.Invoke at two positions.
// Each position is its own registration and keeps its own GUI slot; a
// key built from the statement's identity would merge them.
func TestIdenticalRegistrationsKeepTheirSlots(t *testing.T) {
	const text = `app twin
activity A layout main
layout main
view main 1 android.widget.Button -1
class A extends android.app.Activity implements android.view.View$OnClickListener
method A onClick params v
block A onClick 0
ret _
method A onCreate
block A onCreate 0
const id int 1
call v btn this A findViewById id
call v _ btn android.view.View setOnClickListener this
call v _ btn android.view.View setOnClickListener this
ret _
`
	app, err := appfile.Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	stmts := app.Program.Class("A").Methods[frontend.OnCreate].Blocks[0].Stmts
	if stmts[2] != stmts[3] {
		t.Fatal("identical registration lines did not share a statement")
	}
	h := Generate(app)[0]
	if len(h.GUI) != 2 {
		t.Fatalf("GUI slots = %d, want one per registration (2)", len(h.GUI))
	}
	if h.GUI[0].Pos == h.GUI[1].Pos || !h.GUI[0].Pos.Valid() || !h.GUI[1].Pos.Valid() {
		t.Errorf("slot sites %v and %v must be distinct and valid", h.GUI[0].Pos, h.GUI[1].Pos)
	}
}

func TestXMLCallbacksBecomeSlots(t *testing.T) {
	app := corpus.NewsApp()
	// Declare an XML onClick pointing at an activity method.
	mb := ir.NewMethodBuilder("onMenuClick", "v")
	mb.Ret("")
	app.Program.Class("NewsActivity").AddMethod(mb.Build())
	app.Layouts["main"].Root.Children[1].XMLCallbacks = map[string]string{"onClick": "onMenuClick"}
	h := Generate(app)[0]
	found := false
	for _, s := range h.GUI {
		if s.Callback == "onMenuClick" && s.FromXML {
			found = true
			if !s.BindActivity {
				t.Error("XML slot should bind the activity")
			}
		}
	}
	if !found {
		t.Fatalf("XML callback slot missing: %+v", h.GUI)
	}
}

func TestMultipleActivitiesGetSeparateHarnesses(t *testing.T) {
	app := corpus.DatabaseApp()
	p := app.Program
	second := ir.NewClass("SettingsActivity", frontend.ActivityClass)
	sb := ir.NewMethodBuilder(frontend.OnCreate)
	sb.Ret("")
	second.AddMethod(sb.Build())
	p.AddClass(second)
	app.Manifest.Activities = append(app.Manifest.Activities,
		apk.Component{Class: "SettingsActivity"})
	hs := Generate(app)
	if len(hs) != 2 {
		t.Fatalf("harnesses = %d, want 2", len(hs))
	}
	if hs[0].Method.Class.Name == hs[1].Method.Class.Name {
		t.Error("harness classes must be distinct")
	}
}

// appFor wraps a program as a single-activity app for tests.
func appFor(p *ir.Program, activity string) *apk.App {
	return &apk.App{
		Name:    "test",
		Program: p,
		Manifest: apk.Manifest{
			Activities: []apk.Component{{Class: activity}},
		},
		Layouts: map[string]*apk.Layout{},
	}
}

// orderApp has two activities: A registers itself as its click
// listener in onCreate, and B's onCreate makes a virtual call to
// java.lang.Object#main, which no app class defines — but every
// synthetic harness class does.
func orderApp(order ...string) *apk.App {
	p := ir.NewProgram()
	frontend.InstallFramework(p)
	a := ir.NewClass("A", frontend.ActivityClass, frontend.OnClickListener)
	ab := ir.NewMethodBuilder(frontend.OnCreate)
	ab.Int("id", 1)
	ab.Call("btn", "this", "A", frontend.FindViewByID, "id")
	ab.Call("", "btn", frontend.ViewClass, frontend.SetOnClickListener, "this")
	ab.Ret("")
	a.AddMethod(ab.Build())
	click := ir.NewMethodBuilder(frontend.OnClick, "v")
	click.Ret("")
	a.AddMethod(click.Build())
	p.AddClass(a)

	b := ir.NewClass("B", frontend.ActivityClass)
	bb := ir.NewMethodBuilder(frontend.OnCreate)
	bb.NewObj("o", frontend.Object)
	bb.Call("", "o", frontend.Object, "main")
	bb.Ret("")
	b.AddMethod(bb.Build())
	p.AddClass(b)
	p.Finalize()

	app := appFor(p, order[0])
	for _, cls := range order[1:] {
		app.Manifest.Activities = append(app.Manifest.Activities, apk.Component{Class: cls})
	}
	return app
}

// slotSummary renders an activity's discovered GUI slots.
func slotSummary(h *Harness) string {
	var b strings.Builder
	for _, s := range h.GUI {
		fmt.Fprintf(&b, "%s %s %v parent=%d bind=%t xml=%t", s.Callback, s.Declarer, s.Classes, s.Parent, s.BindActivity, s.FromXML)
		for _, bd := range s.Bindings {
			fmt.Fprintf(&b, " %s:%s", bd.SrcMethod.QualifiedName(), bd.SrcVar)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestDiscoveryIndependentOfManifestOrder: discovery must not see the
// synthetic harness classes of activities listed earlier, so each
// activity's slots are the same in any manifest order.
func TestDiscoveryIndependentOfManifestOrder(t *testing.T) {
	byOrder := map[string]map[string]string{}
	for _, order := range [][]string{{"A", "B"}, {"B", "A"}} {
		got := map[string]string{}
		for _, h := range Generate(orderApp(order...)) {
			got[h.Activity] = slotSummary(h)
			if h.Activity == "B" && len(h.GUI) != 0 {
				t.Errorf("order %v: B has %d GUI slots, want 0:\n%s", order, len(h.GUI), got["B"])
			}
		}
		byOrder[strings.Join(order, ",")] = got
	}
	ab, ba := byOrder["A,B"], byOrder["B,A"]
	for _, act := range []string{"A", "B"} {
		if ab[act] != ba[act] {
			t.Errorf("activity %s slots depend on manifest order:\nA,B:\n%sB,A:\n%s", act, ab[act], ba[act])
		}
	}
	if ab["A"] == "" {
		t.Error("A's click listener was not discovered")
	}
}
