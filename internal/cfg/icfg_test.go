package cfg

import (
	"testing"

	"sierra/internal/ir"
)

// buildCallPair builds:
//
//	class C {
//	  caller() { this.helper1(); this.helper2(); }   // e1 dominates e2
//	  helper1() { this.x = 1 }
//	  helper2() { y = this.x }
//	  brancher() { if * { this.helper1() } else { this.helper2() } }
//	}
func buildCallPair(t *testing.T) *ir.Program {
	t.Helper()
	p := ir.NewProgram()
	c := ir.NewClass("C", "")
	c.Fields = []string{"x"}

	cb := ir.NewMethodBuilder("caller")
	cb.Call("", "this", "C", "helper1")
	cb.Call("", "this", "C", "helper2")
	cb.Ret("")
	c.AddMethod(cb.Build())

	h1 := ir.NewMethodBuilder("helper1")
	h1.Int("one", 1).Store("this", "x", "one")
	h1.Ret("")
	c.AddMethod(h1.Build())

	h2 := ir.NewMethodBuilder("helper2")
	h2.Load("y", "this", "x")
	h2.Ret("")
	c.AddMethod(h2.Build())

	br := ir.NewMethodBuilder("brancher")
	then, els := br.IfStar()
	br.SetBlock(then)
	br.Call("", "this", "C", "helper1")
	br.Ret("")
	br.SetBlock(els)
	br.Call("", "this", "C", "helper2")
	br.Ret("")
	c.AddMethod(br.Build())

	p.AddClass(c)
	p.Finalize()
	return p
}

func resolver(p *ir.Program) func(ir.Pos) []*ir.Method {
	return func(pos ir.Pos) []*ir.Method {
		inv := pos.Stmt().(*ir.Invoke)
		if m := p.ResolveMethod(inv.Class, inv.Method); m != nil {
			return []*ir.Method{m}
		}
		return nil
	}
}

func stmtAt(m *ir.Method, block, idx int) ir.Pos {
	return ir.Pos{Method: m, Block: block, Index: idx}
}

func TestICFGReachesIntoCallees(t *testing.T) {
	p := buildCallPair(t)
	g := NewICFG(resolver(p))
	c := p.Class("C")
	caller := c.Methods["caller"]
	store := stmtAt(c.Methods["helper1"], 0, 1) // this.x = one
	load := stmtAt(c.Methods["helper2"], 0, 0)  // y = this.x
	if !g.Reaches(caller, store) {
		t.Error("caller should reach the store inside helper1")
	}
	if !g.Reaches(caller, load) {
		t.Error("caller should reach the load inside helper2")
	}
	if !g.Reaches(caller, stmtAt(caller, 0, 1)) {
		t.Error("caller should reach its own second call site")
	}
}

func TestICFGReachesWithoutExpressesDeFactoDominance(t *testing.T) {
	p := buildCallPair(t)
	g := NewICFG(resolver(p))
	c := p.Class("C")
	caller := c.Methods["caller"]
	e1 := stmtAt(caller, 0, 0) // call helper1
	e2 := stmtAt(caller, 0, 1) // call helper2

	// Sequential calls: removing e1 cuts off e2 → e1 de-facto dominates e2.
	if g.ReachesWithoutStrict(caller, e1, e2) {
		t.Error("e2 should be unreachable without e1 (sequential calls)")
	}
	// But not vice versa.
	if !g.ReachesWithoutStrict(caller, e2, e1) {
		t.Error("e1 stays reachable without e2")
	}

	// Branching calls: neither dominates.
	br := c.Methods["brancher"]
	var b1, b2 ir.Pos
	for bi, blk := range br.Blocks {
		for si, s := range blk.Stmts {
			if inv, ok := s.(*ir.Invoke); ok {
				if inv.Method == "helper1" {
					b1 = stmtAt(br, bi, si)
				}
				if inv.Method == "helper2" {
					b2 = stmtAt(br, bi, si)
				}
			}
		}
	}
	if !g.ReachesWithoutStrict(br, b1, b2) || !g.ReachesWithoutStrict(br, b2, b1) {
		t.Error("branch arms must remain mutually reachable when the other is removed")
	}
}

func TestEntryPosDescendsEmptyBlocks(t *testing.T) {
	b := ir.NewMethodBuilder("m")
	// Create an empty entry situation: entry block jumps to a block with
	// statements via GotoNew after emitting nothing.
	target := b.GotoNew()
	_ = target
	b.Int("x", 1)
	b.Ret("")
	m := b.Build()
	ep, ok := EntryPos(m)
	if !ok {
		t.Fatal("no entry pos")
	}
	if ep.Block != 1 || ep.Index != 0 {
		t.Fatalf("entry pos = %v, want block 1 idx 0", ep)
	}
}

func TestEntryPosEmptyMethod(t *testing.T) {
	m := &ir.Method{Name: "none"}
	if _, ok := EntryPos(m); ok {
		t.Error("body-less method should have no entry pos")
	}
	if _, ok := EntryPos(nil); ok {
		t.Error("nil method should have no entry pos")
	}
}

func TestStmtDominatesWithinMethod(t *testing.T) {
	p := buildCallPair(t)
	c := p.Class("C")
	caller := c.Methods["caller"]
	dom := MethodDominators(caller)
	e1 := stmtAt(caller, 0, 0)
	e2 := stmtAt(caller, 0, 1)
	if !StmtDominates(dom, e1, e2) {
		t.Error("e1 should dominate e2 in the same block")
	}
	if StmtDominates(dom, e2, e1) {
		t.Error("e2 must not dominate e1")
	}

	br := c.Methods["brancher"]
	brDom := MethodDominators(br)
	// The If statement dominates both arms; arms don't dominate each other.
	iff := stmtAt(br, 0, 0)
	arm1 := stmtAt(br, 1, 0)
	arm2 := stmtAt(br, 2, 0)
	if !StmtDominates(brDom, iff, arm1) || !StmtDominates(brDom, iff, arm2) {
		t.Error("If should dominate both arms")
	}
	if StmtDominates(brDom, arm1, arm2) || StmtDominates(brDom, arm2, arm1) {
		t.Error("arms must not dominate each other")
	}
	// Cross-method positions never dominate.
	if StmtDominates(dom, e1, arm1) {
		t.Error("cross-method dominance must be false")
	}
}
