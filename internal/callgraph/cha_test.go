package callgraph

import (
	"testing"

	"sierra/internal/frontend"
	"sierra/internal/ir"
)

// hierarchyProgram: Base.get overridden by Sub1/Sub2; Caller.top calls
// virtually via Base, statically via Util, and specially via Sub1.
func hierarchyProgram() *ir.Program {
	p := ir.NewProgram()
	frontend.InstallFramework(p)

	base := ir.NewClass("Base", frontend.Object)
	g := ir.NewMethodBuilder("get")
	g.Ret("")
	base.AddMethod(g.Build())
	p.AddClass(base)

	for _, name := range []string{"Sub1", "Sub2"} {
		c := ir.NewClass(name, "Base")
		m := ir.NewMethodBuilder("get")
		m.Ret("")
		c.AddMethod(m.Build())
		p.AddClass(c)
	}

	util := ir.NewClass("Util", frontend.Object)
	h := ir.NewStaticMethodBuilder("helper")
	h.Ret("")
	util.AddMethod(h.Build())
	p.AddClass(util)

	caller := ir.NewClass("Caller", frontend.Object)
	top := ir.NewMethodBuilder("top")
	top.NewObj("o", "Sub1")
	top.Call("", "o", "Base", "get")        // virtual: CHA says all overrides
	top.CallStatic("", "Util", "helper")    // static: exactly one
	top.CallSpecial("", "o", "Sub1", "get") // special: exactly one
	top.Ret("")
	caller.AddMethod(top.Build())
	unused := ir.NewMethodBuilder("unreached")
	unused.CallStatic("", "Util", "helper")
	unused.Ret("")
	caller.AddMethod(unused.Build())
	p.AddClass(caller)
	p.Finalize()
	return p
}

func TestCHAResolution(t *testing.T) {
	p := hierarchyProgram()
	top := p.Class("Caller").Methods["top"]
	r := NewResolver(p)

	var virtualTargets, staticTargets, specialTargets []*ir.Method
	for _, blk := range top.Blocks {
		for _, s := range blk.Stmts {
			inv, ok := s.(*ir.Invoke)
			if !ok {
				continue
			}
			targets := r.targets(inv)
			switch inv.Kind {
			case ir.InvokeVirtual:
				virtualTargets = targets
			case ir.InvokeStatic:
				staticTargets = targets
			case ir.InvokeSpecial:
				specialTargets = targets
			}
		}
	}
	// CHA over-approximates virtual dispatch: Base.get + both overrides.
	if len(virtualTargets) != 3 {
		t.Errorf("virtual targets = %d, want 3 (Base, Sub1, Sub2)", len(virtualTargets))
	}
	if len(staticTargets) != 1 || staticTargets[0].Class.Name != "Util" {
		t.Errorf("static targets = %v", staticTargets)
	}
	if len(specialTargets) != 1 || specialTargets[0].Class.Name != "Sub1" {
		t.Errorf("special targets = %v", specialTargets)
	}
}

func TestCHAReachability(t *testing.T) {
	p := hierarchyProgram()
	top := p.Class("Caller").Methods["top"]
	grown := NewResolver(p).NewCHA().Grow(nil, top)
	reached := setOf(grown)

	if !reached[top] {
		t.Error("entry not reachable")
	}
	if !reached[p.Class("Sub2").Methods["get"]] {
		t.Error("CHA should reach every override")
	}
	if reached[p.Class("Caller").Methods["unreached"]] {
		t.Error("unreached method should not be reachable")
	}
	names := map[string]bool{}
	for _, m := range grown {
		names[m.QualifiedName()] = true
	}
	if !names["Util#helper"] || names["Caller#unreached"] || len(names) != len(grown) {
		t.Errorf("reachable set wrong: %v", names)
	}
}

// TestCHAReachableFromSubset: each growth returns what its root
// reaches and the graph did not reach before — a later root's growth
// stops at methods an earlier root already reached.
func TestCHAReachableFromSubset(t *testing.T) {
	p := hierarchyProgram()
	top := p.Class("Caller").Methods["top"]
	other := p.Class("Caller").Methods["unreached"]
	helper := p.Class("Util").Methods["helper"]
	g := NewResolver(p).NewCHA()

	fromOther := setOf(g.Grow(nil, other))
	if !fromOther[helper] {
		t.Error("helper should be reachable from unreached")
	}
	if fromOther[p.Class("Sub1").Methods["get"]] {
		t.Error("Sub1.get must not be reachable from unreached")
	}
	grownTop := g.Grow(nil, top)
	fromTop := setOf(grownTop)
	if fromTop[helper] || !fromTop[top] || !fromTop[p.Class("Sub1").Methods["get"]] {
		t.Errorf("growing from top must add what other did not reach, got %v", names(grownTop))
	}
	if got := g.Grow(nil, top); len(got) != 0 {
		t.Errorf("regrowing a reached root added %v", names(got))
	}
	if got := g.Grow(nil, nil); len(got) != 0 {
		t.Errorf("nil root should reach nothing, got %d", len(got))
	}
}

func TestCHADeterministicOrder(t *testing.T) {
	p := hierarchyProgram()
	top := p.Class("Caller").Methods["top"]
	m1 := NewResolver(p).NewCHA().Grow(nil, top)
	m2 := NewResolver(p).NewCHA().Grow(nil, top)
	if len(m1) != len(m2) {
		t.Fatal("nondeterministic reachable count")
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("order differs at %d", i)
		}
	}
}

func setOf(ms []*ir.Method) map[*ir.Method]bool {
	out := make(map[*ir.Method]bool, len(ms))
	for _, m := range ms {
		out[m] = true
	}
	return out
}
