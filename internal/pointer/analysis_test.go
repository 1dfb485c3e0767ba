package pointer

import (
	"testing"

	"sierra/internal/frontend"
	"sierra/internal/ir"
)

// prog builds a finalized program with the framework installed plus the
// given classes.
func prog(classes ...*ir.Class) *ir.Program {
	p := ir.NewProgram()
	frontend.InstallFramework(p)
	for _, c := range classes {
		p.AddClass(c)
	}
	p.Finalize()
	return p
}

func entry(m *ir.Method) Entry { return Entry{Method: m, Ctx: EmptyContext} }

func TestBasicFlow(t *testing.T) {
	// main() { a = new A; b = a; b.f = a; c = b.f }
	c := ir.NewClass("A", frontend.Object)
	c.Fields = []string{"f"}
	b := ir.NewMethodBuilder("main")
	b.NewObj("a", "A").Move("b", "a").Store("b", "f", "a").Load("c", "b", "f")
	b.Ret("")
	c.AddMethod(b.Build())
	p := prog(c)
	m := c.Methods["main"]

	res := Analyze(Config{Prog: p, Policy: Insensitive{}, Entries: []Entry{entry(m)}})
	for _, v := range []string{"a", "b", "c"} {
		id, _ := res.Lookup(MKey{M: m, Ctx: EmptyContext})
		pts := res.LocalPointsTo(id, v)
		if pts.Len() != 1 {
			t.Fatalf("pts(%s) = %v, want one object", v, pts)
		}
		for _, o := range pts.Slice() {
			if o.Class != "A" {
				t.Errorf("pts(%s) class = %s", v, o.Class)
			}
		}
	}
}

func TestCallBindingAndReturn(t *testing.T) {
	// A.make() { r = new A; return r }   A.main() { x = this.make() }
	c := ir.NewClass("A", frontend.Object)
	mk := ir.NewMethodBuilder("make")
	mk.NewObj("r", "A")
	mk.Ret("r")
	c.AddMethod(mk.Build())
	mb := ir.NewMethodBuilder("main")
	mb.NewObj("self", "A")
	mb.Call("x", "self", "A", "make")
	mb.Ret("")
	c.AddMethod(mb.Build())
	p := prog(c)
	m := c.Methods["main"]

	res := Analyze(Config{Prog: p, Policy: Insensitive{}, Entries: []Entry{entry(m)}})
	if got := res.PointsToAll(m, "x"); got.Len() != 1 {
		t.Fatalf("return flow broken: pts(x) = %v", got)
	}
	// Receiver binding: make's this is the self object.
	made := res.MethodInstances(c.Methods["make"])
	if len(made) != 1 {
		t.Fatalf("make instances = %v", made)
	}
	if got := res.LocalPointsTo(made[0], "this"); got.Len() != 1 {
		t.Fatalf("this binding broken: %v", got)
	}
}

func TestVirtualDispatchPerReceiverClass(t *testing.T) {
	// Base with two subclasses overriding get(); only the allocated
	// subclass's method should be reached.
	base := ir.NewClass("Base", frontend.Object)
	g := ir.NewMethodBuilder("get")
	g.Ret("")
	base.AddMethod(g.Build())
	sub1 := ir.NewClass("Sub1", "Base")
	g1 := ir.NewMethodBuilder("get")
	g1.NewObj("r", "Sub1")
	g1.Ret("r")
	sub1.AddMethod(g1.Build())
	sub2 := ir.NewClass("Sub2", "Base")
	g2 := ir.NewMethodBuilder("get")
	g2.NewObj("r", "Sub2")
	g2.Ret("r")
	sub2.AddMethod(g2.Build())

	main := ir.NewClass("Main", frontend.Object)
	mb := ir.NewMethodBuilder("main")
	mb.NewObj("o", "Sub1")
	mb.Call("x", "o", "Base", "get")
	mb.Ret("")
	main.AddMethod(mb.Build())

	p := prog(base, sub1, sub2, main)
	res := Analyze(Config{Prog: p, Policy: Hybrid{K: 2}, Entries: []Entry{entry(main.Methods["main"])}})

	if got := res.MethodInstances(sub2.Methods["get"]); len(got) != 0 {
		t.Errorf("Sub2.get should be unreachable, got %v", got)
	}
	if got := res.MethodInstances(sub1.Methods["get"]); len(got) != 1 {
		t.Errorf("Sub1.get instances = %v, want 1", got)
	}
	x := res.PointsToAll(main.Methods["main"], "x")
	if x.Len() != 1 {
		t.Fatalf("pts(x) = %v", x)
	}
	for _, o := range x.Slice() {
		if o.Class != "Sub1" {
			t.Errorf("x points to %s, want Sub1", o.Class)
		}
	}
}

// twoActionAliasProgram reproduces the paper's §3.3 motivating case: two
// actions call helper() which allocates an object; context policies that
// ignore actions conflate the two allocations once k is exhausted.
func twoActionAliasProgram() (*ir.Program, *ir.Method, ir.Pos, ir.Pos) {
	host := ir.NewClass("Host", frontend.Object)
	// helper() { o = new Data; return o } — a static helper so hybrid
	// context is pure k-cfa here.
	hb := ir.NewStaticMethodBuilder("helper")
	hb.NewObj("o", "Data")
	hb.Ret("o")
	host.AddMethod(hb.Build())
	// mid() { r = Host.helper(); return r } — one extra frame to exhaust
	// k=1 call strings.
	mid := ir.NewStaticMethodBuilder("mid")
	mid.CallStatic("r", "Host", "helper")
	mid.Ret("r")
	host.AddMethod(mid.Build())
	// main() { x1 = Host.mid(); x2 = Host.mid() } with each call entering
	// a different action.
	mb := ir.NewStaticMethodBuilder("main")
	mb.CallStatic("x1", "Host", "mid")
	mb.CallStatic("x2", "Host", "mid")
	mb.Ret("")
	host.AddMethod(mb.Build())

	data := ir.NewClass("Data", frontend.Object)
	p := prog(host, data)
	m := host.Methods["main"]
	site1 := ir.Pos{Method: m, Block: 0, Index: 0}
	site2 := ir.Pos{Method: m, Block: 0, Index: 1}
	return p, m, site1, site2
}

func TestActionSensitivitySeparatesAllocations(t *testing.T) {
	p, m, site1, site2 := twoActionAliasProgram()
	actionAt := func(pos ir.Pos) (int, bool) {
		switch pos {
		case site1:
			return 1, true
		case site2:
			return 2, true
		}
		return 0, false
	}

	run := func(pol Policy) (x1, x2 ObjSet) {
		res := Analyze(Config{Prog: p, Policy: pol, Entries: []Entry{entry(m)}, ActionAt: actionAt})
		return res.PointsToAll(m, "x1"), res.PointsToAll(m, "x2")
	}

	// k=1 call-site sensitivity: both paths end with the same last call
	// site (mid → helper), so the allocations conflate.
	x1, x2 := run(KCFA{K: 1})
	if !x1.Intersects(x2) {
		t.Error("1-cfa should conflate the two allocations")
	}
	x1, x2 = run(Hybrid{K: 1})
	if !x1.Intersects(x2) {
		t.Error("hybrid-1 should conflate the two allocations")
	}

	// Action sensitivity keeps them apart even with k=1.
	x1, x2 = run(ActionSensitivePolicy{K: 1})
	if x1.Len() == 0 || x2.Len() == 0 {
		t.Fatalf("empty pts under action sensitivity: %v %v", x1, x2)
	}
	if x1.Intersects(x2) {
		t.Error("action sensitivity must separate allocations from different actions")
	}
}

func TestInflatedViewContextAliasesSameID(t *testing.T) {
	// Two different methods call findViewById(7): same abstract object.
	act := ir.NewClass("A", frontend.ActivityClass)
	b1 := ir.NewMethodBuilder("m1")
	b1.Int("id", 7)
	b1.Call("v", "this", "A", frontend.FindViewByID, "id")
	b1.Ret("")
	act.AddMethod(b1.Build())
	b2 := ir.NewMethodBuilder("m2")
	b2.Int("id", 7)
	b2.Call("v", "this", "A", frontend.FindViewByID, "id")
	b2.Int("id2", 8)
	b2.Call("w", "this", "A", frontend.FindViewByID, "id2")
	b2.Ret("")
	act.AddMethod(b2.Build())
	p := prog(act)

	views := map[int]string{7: frontend.ButtonClass, 8: frontend.TextViewClass}
	res := Analyze(Config{
		Prog: p, Policy: ActionSensitivePolicy{K: 2},
		Entries: []Entry{entry(act.Methods["m1"]), entry(act.Methods["m2"])},
		Views:   views,
	})
	v1 := res.PointsToAll(act.Methods["m1"], "v")
	v2 := res.PointsToAll(act.Methods["m2"], "v")
	w := res.PointsToAll(act.Methods["m2"], "w")
	if !v1.Intersects(v2) {
		t.Error("same view id must alias across methods")
	}
	if v1.Intersects(w) {
		t.Error("different view ids must not alias")
	}
	for _, o := range v1.Slice() {
		if !o.IsView() || o.ViewID != 7 || o.Class != frontend.ButtonClass {
			t.Errorf("bad view object %v", o)
		}
	}
}

func TestMainLooperSingleton(t *testing.T) {
	c := ir.NewClass("C", frontend.Object)
	b := ir.NewMethodBuilder("m")
	b.CallStatic("l1", frontend.LooperClass, frontend.GetMainLooper)
	b.CallStatic("l2", frontend.LooperClass, frontend.MyLooper)
	b.Ret("")
	c.AddMethod(b.Build())
	p := prog(c)
	res := Analyze(Config{Prog: p, Policy: Insensitive{}, Entries: []Entry{entry(c.Methods["m"])}})
	l1 := res.PointsToAll(c.Methods["m"], "l1")
	l2 := res.PointsToAll(c.Methods["m"], "l2")
	if l1.Len() != 1 || !l1.Intersects(l2) {
		t.Fatalf("looper objects: l1=%v l2=%v, want the shared singleton", l1, l2)
	}
}

func TestSeedsJoinAcrossMethods(t *testing.T) {
	// reg(l) in class R never calls sink; a seed wires reg's local into
	// sink's variable.
	r := ir.NewClass("R", frontend.Object)
	rb := ir.NewMethodBuilder("reg")
	rb.NewObj("l", "R")
	rb.Ret("")
	r.AddMethod(rb.Build())
	sb := ir.NewMethodBuilder("sink")
	sb.Load("x", "recv", "ignore") // recv defined only via seed
	sb.Ret("")
	r.AddMethod(sb.Build())
	p := prog(r)

	res := Analyze(Config{
		Prog: p, Policy: Insensitive{},
		Entries: []Entry{entry(r.Methods["reg"]), entry(r.Methods["sink"])},
		Seeds: []Seed{{
			SrcMethod: r.Methods["reg"], SrcVar: "l",
			DstMethod: r.Methods["sink"], DstVar: "recv",
		}},
	})
	if got := res.PointsToAll(r.Methods["sink"], "recv"); got.Len() != 1 {
		t.Fatalf("seed did not propagate: %v", got)
	}
}

func TestOnEventSpawnsEntries(t *testing.T) {
	// main() { r = new Task; h = view.post(r) } — the hook should see the
	// post with the Task object and spawn run().
	task := ir.NewClass("Task", frontend.Object, frontend.RunnableIface)
	task.Fields = []string{"hit"}
	tb := ir.NewMethodBuilder(frontend.Run)
	tb.Bool("t", true).Store("this", "hit", "t")
	tb.Ret("")
	task.AddMethod(tb.Build())

	main := ir.NewClass("Main", frontend.ActivityClass)
	mb := ir.NewMethodBuilder("main")
	mb.Int("id", 1)
	mb.Call("v", "this", "Main", frontend.FindViewByID, "id")
	mb.NewObj("r", "Task")
	mb.Call("", "v", frontend.ViewClass, frontend.Post, "r")
	mb.Ret("")
	main.AddMethod(mb.Build())
	p := prog(task, main)

	var spawned []Event
	res := Analyze(Config{
		Prog: p, Policy: ActionSensitivePolicy{K: 2},
		Entries: []Entry{entry(main.Methods["main"])},
		Views:   map[int]string{1: frontend.ViewClass},
		OnEvent: func(ev Event) []Entry {
			if ev.API.Kind != frontend.APIPostRunnable {
				return nil
			}
			spawned = append(spawned, ev)
			var out []Entry
			for _, o := range ev.Args[0] {
				m := p.ResolveMethod(o.Class, frontend.Run)
				out = append(out, Entry{
					Method: m,
					Ctx:    Context{Action: 42, Objs: o.id()},
					This:   []Obj{o},
				})
			}
			return out
		},
	})
	if len(spawned) == 0 {
		t.Fatal("post event never fired")
	}
	runs := res.MethodInstances(task.Methods[frontend.Run])
	if len(runs) != 1 {
		t.Fatalf("run instances = %v", runs)
	}
	if ctx := res.Key(runs[0]).Ctx; ctx.Action != 42 {
		t.Errorf("spawned ctx = %v, want action 42", ctx)
	}
	// The store in run() must have landed on the Task object.
	thisSet := res.LocalPointsTo(runs[0], "this")
	if thisSet.Len() != 1 {
		t.Fatalf("run this = %v", thisSet)
	}
	for _, o := range thisSet.Slice() {
		if got := res.FieldPointsTo(o, "hit"); got.Len() != 0 {
			// "hit" holds no objects (boolean store), so empty is right;
			// just ensure no panic and object identity is the Task.
			t.Errorf("unexpected field pts %v", got)
		}
		if o.Class != "Task" {
			t.Errorf("this class = %s", o.Class)
		}
	}
}

func TestReachableFromFollowsCallEdges(t *testing.T) {
	a := ir.NewClass("A", frontend.Object)
	leaf := ir.NewMethodBuilder("leaf")
	leaf.Ret("")
	a.AddMethod(leaf.Build())
	mid := ir.NewMethodBuilder("mid")
	mid.Call("", "this", "A", "leaf")
	mid.Ret("")
	a.AddMethod(mid.Build())
	other := ir.NewMethodBuilder("other")
	other.Ret("")
	a.AddMethod(other.Build())
	top := ir.NewMethodBuilder("top")
	top.NewObj("self", "A")
	top.Call("", "self", "A", "mid")
	top.Ret("")
	a.AddMethod(top.Build())
	p := prog(a)

	res := Analyze(Config{Prog: p, Policy: Hybrid{K: 2}, Entries: []Entry{entry(a.Methods["top"])}})
	reach := res.ReachableFrom(res.MethodInstances(a.Methods["top"])...)
	var names []string
	for _, id := range reach {
		names = append(names, res.Method(id).Name)
	}
	has := func(n string) bool {
		for _, x := range names {
			if x == n {
				return true
			}
		}
		return false
	}
	if !has("top") || !has("mid") || !has("leaf") {
		t.Errorf("reachable = %v, want top/mid/leaf", names)
	}
	if has("other") {
		t.Errorf("other should not be reachable: %v", names)
	}
}

func TestPolicyNamesAndHeapCtx(t *testing.T) {
	pols := []Policy{Insensitive{}, KCFA{K: 2}, KObj{K: 2}, Hybrid{K: 2}, ActionSensitivePolicy{K: 2}}
	seen := map[string]bool{}
	for _, pol := range pols {
		if pol.Name() == "" || seen[pol.Name()] {
			t.Errorf("bad/duplicate policy name %q", pol.Name())
		}
		seen[pol.Name()] = true
	}
	if !(ActionSensitivePolicy{K: 2}).ActionSensitive() {
		t.Error("AS policy must report action sensitivity")
	}
	ctx := Context{Action: 7, Objs: "1,2"}
	if got := (ActionSensitivePolicy{K: 2}).HeapCtx(ctx); got != "A7|1,2" {
		t.Errorf("AS heap ctx = %q", got)
	}
	if got := (Hybrid{K: 2}).HeapCtx(Context{Objs: "1", Calls: "s"}); got != "1/s" {
		t.Errorf("hybrid heap ctx = %q", got)
	}
}

func TestPushTruncation(t *testing.T) {
	s := ""
	for i := 0; i < 5; i++ {
		s = push(s, "x", 2)
	}
	if s != "x,x" {
		t.Errorf("push chain = %q, want x,x", s)
	}
	if push("a,b,c", "z", 3) != "z,a,b" {
		t.Errorf("push = %q", push("a,b,c", "z", 3))
	}
	if push("a", "z", 0) != "" {
		t.Error("k=0 must collapse")
	}
}
