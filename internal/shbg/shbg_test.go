package shbg

import (
	"testing"

	"sierra/internal/actions"
	"sierra/internal/apk"
	"sierra/internal/corpus"
	"sierra/internal/frontend"
	"sierra/internal/harness"
	"sierra/internal/ir"
	"sierra/internal/pointer"
)

// pipeline runs harness + discovery + SHBG for an app.
func pipeline(t *testing.T, app *apk.App) (*actions.Registry, *Graph) {
	t.Helper()
	hs := harness.Generate(app)
	reg, res := actions.Analyze(app, hs, pointer.ActionSensitivePolicy{K: 2})
	return reg, Build(reg, res, Options{})
}

func action(reg *actions.Registry, kind actions.Kind, callback string, instance int) *actions.Action {
	for _, a := range reg.Actions() {
		if a.Kind == kind && a.Callback == callback && (instance == 0 || a.Instance == instance) {
			return a
		}
	}
	return nil
}

func TestFigure5LifecycleHB(t *testing.T) {
	reg, g := pipeline(t, corpus.SudokuTimerApp())
	lc := func(cb string, inst int) int {
		a := action(reg, actions.KindLifecycle, cb, inst)
		if a == nil {
			t.Fatalf("missing lifecycle action %s#%d", cb, inst)
		}
		return a.ID
	}
	mustHB := func(a, b int, desc string) {
		t.Helper()
		if !g.HB(a, b) {
			t.Errorf("%s: edge missing", desc)
		}
		if g.HB(b, a) {
			t.Errorf("%s: reverse edge must be absent", desc)
		}
	}
	// The four relations called out in Fig 5.
	mustHB(lc(frontend.OnStart, 1), lc(frontend.OnStop, 1), `onStart "1" ≺ onStop`)
	mustHB(lc(frontend.OnResume, 1), lc(frontend.OnPause, 1), `onResume "1" ≺ onPause`)
	mustHB(lc(frontend.OnPause, 1), lc(frontend.OnResume, 2), `onPause ≺ onResume "2"`)
	mustHB(lc(frontend.OnStop, 1), lc(frontend.OnStart, 2), `onStop ≺ onStart "2"`)
	// Plus the endpoints.
	mustHB(lc(frontend.OnCreate, 1), lc(frontend.OnDestroy, 1), "onCreate ≺ onDestroy")
	// onResume "2" and onStop are genuinely unorderable by dominance.
	if g.HB(lc(frontend.OnResume, 2), lc(frontend.OnStop, 1)) {
		t.Error(`onResume "2" must not be ordered before onStop by dominance`)
	}
}

func TestFigure6GUIHB(t *testing.T) {
	reg, g := pipeline(t, corpus.NewsApp())
	onResume := action(reg, actions.KindLifecycle, frontend.OnResume, 1)
	onClick := action(reg, actions.KindGUI, frontend.OnClick, 0)
	onScroll := action(reg, actions.KindGUI, frontend.OnScroll, 0)
	if onClick == nil || onScroll == nil {
		t.Fatal("GUI actions missing")
	}
	if !g.HB(onResume.ID, onClick.ID) || !g.HB(onResume.ID, onScroll.ID) {
		t.Error("onResume must precede GUI actions")
	}
	if g.Ordered(onClick.ID, onScroll.ID) {
		t.Error("independent GUI actions must stay unordered")
	}
	// UI events precede teardown (the §6.4 filter).
	onStop := action(reg, actions.KindLifecycle, frontend.OnStop, 1)
	if !g.HB(onClick.ID, onStop.ID) {
		t.Error("onClick ≺ onStop missing (stopped activities receive no UI events)")
	}
	if g.HB(onStop.ID, onClick.ID) {
		t.Error("cycle: onStop ≺ onClick must be absent")
	}
}

func TestNewsAppSpawnChainOrdered(t *testing.T) {
	reg, g := pipeline(t, corpus.NewsApp())
	onClick := action(reg, actions.KindGUI, frontend.OnClick, 0)
	onScroll := action(reg, actions.KindGUI, frontend.OnScroll, 0)
	bg := action(reg, actions.KindAsyncBackground, frontend.DoInBackground, 0)
	post := action(reg, actions.KindAsyncPost, frontend.OnPostExecute, 0)

	if !g.HB(onClick.ID, bg.ID) || !g.HB(bg.ID, post.ID) || !g.HB(onClick.ID, post.ID) {
		t.Error("onClick ≺ doInBackground ≺ onPostExecute chain broken")
	}
	// The Fig 1 race pairs stay unordered.
	if g.Ordered(bg.ID, onScroll.ID) {
		t.Error("doInBackground vs onScroll must be unordered (the Fig 1 race)")
	}
	if g.Ordered(post.ID, onScroll.ID) {
		t.Error("onPostExecute vs onScroll must be unordered")
	}
}

func TestSudokuRunnableUnorderedWithPause(t *testing.T) {
	reg, g := pipeline(t, corpus.SudokuTimerApp())
	onResume := action(reg, actions.KindLifecycle, frontend.OnResume, 1)
	onPause := action(reg, actions.KindLifecycle, frontend.OnPause, 1)
	run := action(reg, actions.KindRunnable, frontend.Run, 0)
	if run == nil {
		t.Fatal("runnable action missing")
	}
	if !g.HB(onResume.ID, run.ID) {
		t.Error("onResume ≺ run missing (post edge)")
	}
	if g.Ordered(run.ID, onPause.ID) {
		t.Error("run vs onPause must be unordered (the Fig 8 candidate)")
	}
}

// rule4App posts two runnables back to back in onCreate.
func rule4App() *apk.App {
	p := ir.NewProgram()
	frontend.InstallFramework(p)
	for _, name := range []string{"R1", "R2"} {
		c := ir.NewClass(name, frontend.Object, frontend.RunnableIface)
		b := ir.NewMethodBuilder(frontend.Run)
		b.Ret("")
		c.AddMethod(b.Build())
		p.AddClass(c)
	}
	act := ir.NewClass("A", frontend.ActivityClass)
	b := ir.NewMethodBuilder(frontend.OnCreate)
	b.Int("id", 1)
	b.Call("v", "this", "A", frontend.FindViewByID, "id")
	b.NewObj("r1", "R1")
	b.Call("", "v", frontend.ViewClass, frontend.Post, "r1")
	b.NewObj("r2", "R2")
	b.Call("", "v", frontend.ViewClass, frontend.Post, "r2")
	b.Ret("")
	act.AddMethod(b.Build())
	p.AddClass(act)
	p.Finalize()
	return &apk.App{
		Name: "rule4", Program: p,
		Manifest: apk.Manifest{Activities: []apk.Component{{Class: "A", Layout: "l"}}},
		Layouts: map[string]*apk.Layout{"l": {Name: "l",
			Root: &apk.View{ID: 1, Type: frontend.ViewClass}}},
	}
}

func TestRule4IntraProcDomination(t *testing.T) {
	reg, g := pipeline(t, rule4App())
	var r1, r2 *actions.Action
	for _, a := range reg.Actions() {
		if a.Kind == actions.KindRunnable {
			switch a.Class {
			case "R1":
				r1 = a
			case "R2":
				r2 = a
			}
		}
	}
	if r1 == nil || r2 == nil {
		t.Fatal("runnable actions missing")
	}
	if !g.HB(r1.ID, r2.ID) {
		t.Error("rule 4: first-posted runnable must precede second")
	}
	if g.HB(r2.ID, r1.ID) {
		t.Error("rule 4 reverse edge must be absent")
	}
	if g.RuleCount(RuleIntraProc) == 0 {
		t.Error("intra-proc rule contributed no edges")
	}
}

// rule5App posts R1 from helperA and R2 from helperB, where onCreate
// calls helperA then helperB sequentially.
func rule5App() *apk.App {
	p := ir.NewProgram()
	frontend.InstallFramework(p)
	for _, name := range []string{"R1", "R2"} {
		c := ir.NewClass(name, frontend.Object, frontend.RunnableIface)
		b := ir.NewMethodBuilder(frontend.Run)
		b.Ret("")
		c.AddMethod(b.Build())
		p.AddClass(c)
	}
	act := ir.NewClass("A", frontend.ActivityClass)
	ha := ir.NewMethodBuilder("helperA", "v")
	ha.NewObj("r1", "R1")
	ha.Call("", "v", frontend.ViewClass, frontend.Post, "r1")
	ha.Ret("")
	act.AddMethod(ha.Build())
	hb := ir.NewMethodBuilder("helperB", "v")
	hb.NewObj("r2", "R2")
	hb.Call("", "v", frontend.ViewClass, frontend.Post, "r2")
	hb.Ret("")
	act.AddMethod(hb.Build())
	b := ir.NewMethodBuilder(frontend.OnCreate)
	b.Int("id", 1)
	b.Call("v", "this", "A", frontend.FindViewByID, "id")
	b.Call("", "this", "A", "helperA", "v")
	b.Call("", "this", "A", "helperB", "v")
	b.Ret("")
	act.AddMethod(b.Build())
	p.AddClass(act)
	p.Finalize()
	return &apk.App{
		Name: "rule5", Program: p,
		Manifest: apk.Manifest{Activities: []apk.Component{{Class: "A", Layout: "l"}}},
		Layouts: map[string]*apk.Layout{"l": {Name: "l",
			Root: &apk.View{ID: 1, Type: frontend.ViewClass}}},
	}
}

func TestRule5InterProcDomination(t *testing.T) {
	reg, g := pipeline(t, rule5App())
	var r1, r2 *actions.Action
	for _, a := range reg.Actions() {
		if a.Kind == actions.KindRunnable {
			switch a.Class {
			case "R1":
				r1 = a
			case "R2":
				r2 = a
			}
		}
	}
	if r1 == nil || r2 == nil {
		t.Fatal("runnable actions missing")
	}
	if !g.HB(r1.ID, r2.ID) {
		t.Error("rule 5: helperA's post must precede helperB's post")
	}
	if g.HB(r2.ID, r1.ID) {
		t.Error("rule 5 reverse edge must be absent")
	}
	if g.RuleCount(RuleInterProc) == 0 {
		t.Error("inter-proc rule contributed no edges")
	}
}

// TestPostOrderAppOrdersRules4And5: corpus.PostOrderApp, the fixture
// the dynamic-order oracle and the HB-rule ablation run rules 4 and 5
// on, gives each rule at least one edge, R1 ≺ R2 and R3 ≺ R4 among
// them.
func TestPostOrderAppOrdersRules4And5(t *testing.T) {
	reg, g := pipeline(t, corpus.PostOrderApp())
	run := map[string]*actions.Action{}
	for _, a := range reg.Actions() {
		if a.Kind == actions.KindRunnable {
			run[a.Class] = a
		}
	}
	if len(run) != 4 {
		t.Fatalf("runnable actions = %d, want R1..R4", len(run))
	}
	for _, r := range []Rule{RuleIntraProc, RuleInterProc} {
		if g.RuleCount(r) == 0 {
			t.Errorf("rule %s contributed no edges", r)
		}
	}
	for _, p := range [][2]string{{"R1", "R2"}, {"R3", "R4"}} {
		if !g.HB(run[p[0]].ID, run[p[1]].ID) || g.HB(run[p[1]].ID, run[p[0]].ID) {
			t.Errorf("want %s ≺ %s and not the reverse", p[0], p[1])
		}
	}
}

// rule6App posts R1 from onCreate and R2 from onClick; onCreate ≺
// onClick via the harness, so R1 ≺ R2 by inter-action transitivity.
func rule6App() *apk.App {
	p := ir.NewProgram()
	frontend.InstallFramework(p)
	for _, name := range []string{"R1", "R2"} {
		c := ir.NewClass(name, frontend.Object, frontend.RunnableIface)
		b := ir.NewMethodBuilder(frontend.Run)
		b.Ret("")
		c.AddMethod(b.Build())
		p.AddClass(c)
	}
	act := ir.NewClass("A", frontend.ActivityClass, frontend.OnClickListener)
	b := ir.NewMethodBuilder(frontend.OnCreate)
	b.Int("id", 1)
	b.Call("v", "this", "A", frontend.FindViewByID, "id")
	b.Call("", "v", frontend.ViewClass, frontend.SetOnClickListener, "this")
	b.NewObj("r1", "R1")
	b.Call("", "v", frontend.ViewClass, frontend.Post, "r1")
	b.Ret("")
	act.AddMethod(b.Build())
	cb := ir.NewMethodBuilder(frontend.OnClick, "view")
	cb.Int("id", 1)
	cb.Call("v", "this", "A", frontend.FindViewByID, "id")
	cb.NewObj("r2", "R2")
	cb.Call("", "v", frontend.ViewClass, frontend.Post, "r2")
	cb.Ret("")
	act.AddMethod(cb.Build())
	p.AddClass(act)
	p.Finalize()
	return &apk.App{
		Name: "rule6", Program: p,
		Manifest: apk.Manifest{Activities: []apk.Component{{Class: "A", Layout: "l"}}},
		Layouts: map[string]*apk.Layout{"l": {Name: "l",
			Root: &apk.View{ID: 1, Type: frontend.ViewClass}}},
	}
}

func TestFigure7InterActionTransitivity(t *testing.T) {
	reg, g := pipeline(t, rule6App())
	var r1, r2 *actions.Action
	for _, a := range reg.Actions() {
		if a.Kind == actions.KindRunnable {
			switch a.Class {
			case "R1":
				r1 = a
			case "R2":
				r2 = a
			}
		}
	}
	if r1 == nil || r2 == nil {
		t.Fatal("runnable actions missing")
	}
	if !g.HB(r1.ID, r2.ID) {
		t.Error("Fig 7: onCreate's post must precede onClick's post")
	}
	if g.RuleCount(RuleInterAction) == 0 {
		t.Error("inter-action rule contributed no edges")
	}
}

func TestAblationDisableRules(t *testing.T) {
	app := rule6App()
	hs := harness.Generate(app)
	reg, res := actions.Analyze(app, hs, pointer.ActionSensitivePolicy{K: 2})
	full := Build(reg, res, Options{})
	crippled := Build(reg, res, Options{Disable: map[Rule]bool{RuleInterAction: true}})
	if crippled.NumEdges() >= full.NumEdges() {
		t.Errorf("disabling inter-action must lose edges: %d vs %d",
			crippled.NumEdges(), full.NumEdges())
	}
	if crippled.RuleCount(RuleInterAction) != 0 {
		t.Error("disabled rule still contributed edges")
	}
}

func TestGraphStatsSanity(t *testing.T) {
	_, g := pipeline(t, corpus.NewsApp())
	if g.NumActions() < 10 {
		t.Errorf("actions = %d, want >= 10", g.NumActions())
	}
	frac := g.OrderedFraction()
	if frac <= 0 || frac > 1.0 {
		t.Errorf("ordered fraction = %f out of range", frac)
	}
	requireRevConsistent(t, g)
	// No self-edges and antisymmetry (the harness model is acyclic).
	for a := 0; a < g.NumActions(); a++ {
		if g.HB(a, a) {
			t.Errorf("self edge on %d", a)
		}
		for b := 0; b < g.NumActions(); b++ {
			if g.HB(a, b) && g.HB(b, a) {
				t.Errorf("HB cycle between %d and %d", a, b)
			}
		}
	}
}

// multiSpawnApp posts the same runnable class from two independent
// lifecycle callbacks (two distinct sites share the action only when the
// site matches, so craft one site reached by both onStart and onResume
// via a helper).
func multiSpawnApp() *apk.App {
	p := ir.NewProgram()
	frontend.InstallFramework(p)
	r := ir.NewClass("R", frontend.Object, frontend.RunnableIface)
	rb := ir.NewMethodBuilder(frontend.Run)
	rb.Ret("")
	r.AddMethod(rb.Build())
	p.AddClass(r)

	act := ir.NewClass("A", frontend.ActivityClass)
	act.Fields = []string{"r", "v"}
	oc := ir.NewMethodBuilder(frontend.OnCreate)
	oc.Int("id", 1)
	oc.Call("v", "this", "A", frontend.FindViewByID, "id")
	oc.Store("this", "v", "v")
	oc.NewObj("r", "R")
	oc.Store("this", "r", "r")
	oc.Ret("")
	act.AddMethod(oc.Build())
	// Shared posting helper called from both onStart and onResume: the
	// runnable action gets two distinct spawner actions through ONE site.
	kick := ir.NewMethodBuilder("kick")
	kick.Load("v", "this", "v")
	kick.Load("r", "this", "r")
	kick.Call("", "v", frontend.ViewClass, frontend.Post, "r")
	kick.Ret("")
	act.AddMethod(kick.Build())
	os := ir.NewMethodBuilder(frontend.OnStart)
	os.Call("", "this", "A", "kick")
	os.Ret("")
	act.AddMethod(os.Build())
	orm := ir.NewMethodBuilder(frontend.OnResume)
	orm.Call("", "this", "A", "kick")
	orm.Ret("")
	act.AddMethod(orm.Build())
	p.AddClass(act)
	p.Finalize()
	return &apk.App{
		Name: "multispawn", Program: p,
		Manifest: apk.Manifest{Activities: []apk.Component{{Class: "A", Layout: "l"}}},
		Layouts: map[string]*apk.Layout{"l": {Name: "l",
			Root: &apk.View{ID: 1, Type: frontend.ViewClass}}},
	}
}

func TestMultiSpawnIntersectionRule(t *testing.T) {
	reg, g := pipeline(t, multiSpawnApp())
	var run *actions.Action
	for _, a := range reg.Actions() {
		if a.Kind == actions.KindRunnable {
			run = a
		}
	}
	if run == nil {
		t.Fatal("runnable action missing")
	}
	spawners := map[int]bool{}
	for _, s := range run.Spawns {
		spawners[s.From] = true
	}
	if len(spawners) < 2 {
		t.Fatalf("expected multiple spawners, got %v", run.Spawns)
	}
	onCreate := action(reg, actions.KindLifecycle, frontend.OnCreate, 1)
	onStart1 := action(reg, actions.KindLifecycle, frontend.OnStart, 1)
	onResume2 := action(reg, actions.KindLifecycle, frontend.OnResume, 2)
	// onCreate precedes every spawner (onStart#1/2, onResume#1/2) → the
	// intersection rule orders it before the conflated runnable.
	if !g.HB(onCreate.ID, run.ID) {
		t.Error("onCreate should precede the multi-spawned runnable (intersection rule)")
	}
	// onStart#1 does NOT precede all spawners (a post can come from
	// onStart#2's pass after a restart... via onResume#2 whose spawner
	// set includes onStart instances unordered with onStart#1's pass) —
	// crucially the runnable must NOT be ordered after actions that only
	// precede SOME spawners.
	if g.HB(onResume2.ID, run.ID) {
		t.Error("onResume#2 precedes only some spawners; edge must be absent")
	}
	_ = onStart1
}

func TestGUITeardownOptionIsolation(t *testing.T) {
	app := corpus.NewsApp()
	hs := harness.Generate(app)
	reg, res := actions.Analyze(app, hs, pointer.ActionSensitivePolicy{K: 2})
	full := Build(reg, res, Options{})
	sound := Build(reg, res, Options{DisableGUITeardownOrder: true})

	onClick := action(reg, actions.KindGUI, frontend.OnClick, 0)
	onStop := action(reg, actions.KindLifecycle, frontend.OnStop, 1)
	if !full.HB(onClick.ID, onStop.ID) {
		t.Error("full graph should order onClick ≺ onStop (§6.4 filter)")
	}
	if sound.HB(onClick.ID, onStop.ID) {
		t.Error("instance-sound graph must not order onClick ≺ onStop")
	}
	if sound.NumEdges() >= full.NumEdges() {
		t.Errorf("teardown edges not isolated: %d vs %d", sound.NumEdges(), full.NumEdges())
	}
	// Everything else is unaffected: lifecycle order intact.
	onCreate := action(reg, actions.KindLifecycle, frontend.OnCreate, 1)
	if !sound.HB(onCreate.ID, onStop.ID) {
		t.Error("lifecycle order lost in sound graph")
	}
}
