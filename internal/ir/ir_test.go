package ir

import (
	"fmt"
	"strings"
	"testing"
)

func buildDiamond(t *testing.T) (*Program, *Method) {
	t.Helper()
	p := NewProgram()
	c := NewClass("A", "")
	c.Fields = []string{"x"}
	b := NewMethodBuilder("m", "p0")
	b.Int("i", 1)
	then, els := b.If("i", CmpEQ, IntOperand(1))
	b.SetBlock(then)
	b.Store("this", "x", "i")
	join := b.GotoNew()
	b.SetBlock(els)
	b.Load("y", "this", "x")
	b.Goto(join)
	b.SetBlock(join)
	b.Ret("")
	c.AddMethod(b.Build())
	p.AddClass(c)
	p.Finalize()
	return p, c.Methods["m"]
}

func TestBuilderDiamondShape(t *testing.T) {
	_, m := buildDiamond(t)
	if len(m.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(m.Blocks))
	}
	entry := m.Blocks[0]
	if len(entry.Succs) != 2 {
		t.Fatalf("entry succs = %v, want 2", entry.Succs)
	}
	if _, ok := entry.Stmts[len(entry.Stmts)-1].(*If); !ok {
		t.Fatalf("entry does not end in If: %v", entry.Stmts)
	}
	// Both arms converge on the join block.
	if m.Blocks[entry.Succs[0]].Succs[0] != m.Blocks[entry.Succs[1]].Succs[0] {
		t.Fatalf("arms do not join: %v vs %v",
			m.Blocks[entry.Succs[0]].Succs, m.Blocks[entry.Succs[1]].Succs)
	}
}

func TestFinalizeAssignsPositionsAndSites(t *testing.T) {
	p, m := buildDiamond(t)
	if !p.Finalized() {
		t.Fatal("program not finalized")
	}
	// Statements carry no position: a Pos built from the loop that
	// found a statement is valid and names that statement.
	for bi, blk := range m.Blocks {
		if blk.Index != bi {
			t.Fatalf("block %d numbered %d", bi, blk.Index)
		}
		for si, s := range blk.Stmts {
			pos := Pos{Method: m, Block: bi, Index: si}
			if !pos.Valid() {
				t.Fatalf("pos %v not valid", pos)
			}
			if pos.Stmt() != s {
				t.Fatalf("pos.Stmt mismatch at %v", pos)
			}
		}
	}
}

// refFinalize is the whole-program walk Finalize replaced: every class
// in name order, numbering each unnumbered New.
func refFinalize(p *Program, next int) int {
	for _, c := range p.Classes() {
		for _, m := range c.MethodsSorted() {
			for _, b := range m.Blocks {
				for _, s := range b.Stmts {
					if n, ok := s.(*New); ok && n.Site < 0 {
						n.Site = next
						next++
					}
				}
			}
		}
	}
	return next
}

// sites lists every New's Site in whole-program name order.
func sites(p *Program) []int {
	var out []int
	for _, c := range p.Classes() {
		for _, m := range c.MethodsSorted() {
			for _, b := range m.Blocks {
				for _, s := range b.Stmts {
					if n, ok := s.(*New); ok {
						out = append(out, n.Site)
					}
				}
			}
		}
	}
	return out
}

// TestFinalizeWalksOnlyPendingClasses grows a finalized program the
// three ways that leave unnumbered sites — a new class, a new method on
// a registered class, and a body transplant inserting a New — and
// checks each re-Finalize numbers exactly what the whole-program walk
// numbers, without revisiting untouched classes.
func TestFinalizeWalksOnlyPendingClasses(t *testing.T) {
	allocs := func(name string, n int) *Method {
		b := NewMethodBuilder(name)
		for i := 0; i < n; i++ {
			b.NewObj("o", "A")
		}
		b.Ret("")
		return b.Build()
	}
	build := func() *Program {
		p := NewProgram()
		for _, name := range []string{"D", "B"} {
			c := NewClass(name, "")
			c.AddMethod(allocs("m", 2))
			p.AddClass(c)
		}
		return p
	}
	steps := []func(p *Program){
		func(p *Program) {
			c := NewClass("C", "")
			c.AddMethod(allocs("m", 1))
			p.AddClass(c)
			p.AddClass(NewClass("A", ""))
		},
		func(p *Program) { p.Class("D").AddMethod(allocs("a", 2)) },
		func(p *Program) {
			if err := p.Class("B").Methods["m"].ReplaceBodyFlex(allocs("m", 3)); err != nil {
				t.Fatal(err)
			}
		},
	}
	got, want := build(), build()
	got.Finalize()
	next := refFinalize(want, 0)
	for i, step := range steps {
		step(got)
		step(want)
		if i == 0 {
			// D was finalized and not touched since: not pending.
			if len(got.pending) != 2 {
				t.Fatalf("pending = %d classes, want 2 (A, C)", len(got.pending))
			}
		}
		got.Finalize()
		next = refFinalize(want, next)
		if g, w := fmt.Sprint(sites(got)), fmt.Sprint(sites(want)); g != w {
			t.Fatalf("step %d: sites %s, want %s", i, g, w)
		}
		if got.NumAllocSites() != next {
			t.Fatalf("step %d: NumAllocSites = %d, want %d", i, got.NumAllocSites(), next)
		}
		if len(got.pending) != 0 {
			t.Fatalf("step %d: %d classes still pending", i, len(got.pending))
		}
	}
}

func TestAllocSitesAreUnique(t *testing.T) {
	p := NewProgram()
	c := NewClass("A", "")
	b := NewMethodBuilder("m")
	b.NewObj("a", "A").NewObj("b", "A").NewObj("c", "A")
	b.Ret("")
	c.AddMethod(b.Build())
	p.AddClass(c)
	p.Finalize()
	seen := map[int]bool{}
	for _, blk := range c.Methods["m"].Blocks {
		for _, s := range blk.Stmts {
			if n, ok := s.(*New); ok {
				if seen[n.Site] {
					t.Fatalf("duplicate site %d", n.Site)
				}
				seen[n.Site] = true
			}
		}
	}
	if len(seen) != 3 || p.NumAllocSites() != 3 {
		t.Fatalf("sites = %d (program says %d), want 3", len(seen), p.NumAllocSites())
	}
}

func TestIsSubtypeWalksSupersAndInterfaces(t *testing.T) {
	p := NewProgram()
	p.AddClass(NewClass("Object", ""))
	p.AddClass(NewClass("Runnable", "")) // interface modelled as a class
	p.AddClass(NewClass("Activity", "Object"))
	p.AddClass(NewClass("MyActivity", "Activity", "Runnable"))
	p.AddClass(NewClass("SubActivity", "MyActivity"))

	cases := []struct {
		sub, super string
		want       bool
	}{
		{"MyActivity", "Activity", true},
		{"MyActivity", "Object", true},
		{"MyActivity", "Runnable", true},
		{"SubActivity", "Runnable", true}, // inherited interface
		{"Activity", "MyActivity", false},
		{"Activity", "Activity", true},
		{"Nope", "Object", false},
		{"Nope", "Nope", true}, // reflexive even for unknown names
	}
	for _, c := range cases {
		if got := p.IsSubtype(c.sub, c.super); got != c.want {
			t.Errorf("IsSubtype(%s, %s) = %t, want %t", c.sub, c.super, got, c.want)
		}
	}
}

func TestResolveMethodWalksSuperChain(t *testing.T) {
	p := NewProgram()
	base := NewClass("Base", "")
	mb := NewMethodBuilder("foo")
	mb.Ret("")
	base.AddMethod(mb.Build())
	derived := NewClass("Derived", "Base")
	p.AddClass(base)
	p.AddClass(derived)

	if m := p.ResolveMethod("Derived", "foo"); m == nil || m.Class != base {
		t.Fatalf("ResolveMethod(Derived, foo) = %v, want Base#foo", m)
	}
	if m := p.ResolveMethod("Derived", "bar"); m != nil {
		t.Fatalf("ResolveMethod(Derived, bar) = %v, want nil", m)
	}
	// Override shadows the base implementation.
	ob := NewMethodBuilder("foo")
	ob.Ret("")
	derived.AddMethod(ob.Build())
	if m := p.ResolveMethod("Derived", "foo"); m == nil || m.Class != derived {
		t.Fatalf("override not found: %v", m)
	}
}

func TestDuplicateClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate class")
		}
	}()
	p := NewProgram()
	p.AddClass(NewClass("A", ""))
	p.AddClass(NewClass("A", ""))
}

func TestDuplicateMethodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate method")
		}
	}()
	c := NewClass("A", "")
	b1 := NewMethodBuilder("m")
	b1.Ret("")
	c.AddMethod(b1.Build())
	b2 := NewMethodBuilder("m")
	b2.Ret("")
	c.AddMethod(b2.Build())
}

func TestBuildSealsOpenBlocks(t *testing.T) {
	b := NewMethodBuilder("m")
	b.Int("x", 5) // never returns explicitly
	m := b.Build()
	last := m.Blocks[0].Stmts[len(m.Blocks[0].Stmts)-1]
	if _, ok := last.(*Return); !ok {
		t.Fatalf("open block not sealed with Return: %v", last)
	}
}

func TestEmitIntoSealedBlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic emitting into sealed block")
		}
	}()
	b := NewMethodBuilder("m")
	b.Ret("")
	b.Int("x", 1) // current block already sealed by Ret
}

func TestIfStarUsesFreshVars(t *testing.T) {
	b := NewMethodBuilder("m")
	_, e1 := b.IfStar()
	b.Ret("")
	b.SetBlock(e1)
	_, e2 := b.IfStar()
	b.Ret("")
	b.SetBlock(e2)
	b.Ret("")
	m := b.Build()
	vars := map[string]bool{}
	for _, blk := range m.Blocks {
		for _, s := range blk.Stmts {
			if iff, ok := s.(*If); ok {
				if vars[iff.A] {
					t.Fatalf("star var %s reused", iff.A)
				}
				vars[iff.A] = true
			}
		}
	}
	if len(vars) != 2 {
		t.Fatalf("star vars = %d, want 2", len(vars))
	}
}

func TestStmtStrings(t *testing.T) {
	cases := []struct {
		s    Stmt
		want string
	}{
		{&New{Dst: "a", Class: "C"}, "a = new C"},
		{&Const{Dst: "a", Kind: ConstInt, Int: 7}, "a = 7"},
		{&Const{Dst: "a", Kind: ConstBool, Bool: true}, "a = true"},
		{&Const{Dst: "a", Kind: ConstNull}, "a = null"},
		{&Const{Dst: "a", Kind: ConstString, Str: "s"}, `a = "s"`},
		{&Move{Dst: "a", Src: "b"}, "a = b"},
		{&Load{Dst: "a", Obj: "o", Field: "f"}, "a = o.f"},
		{&Store{Obj: "o", Field: "f", Src: "a"}, "o.f = a"},
		{&StaticLoad{Dst: "a", Class: "C", Field: "f"}, "a = static C.f"},
		{&StaticStore{Class: "C", Field: "f", Src: "a"}, "static C.f = a"},
		{&BinOp{Dst: "a", Op: OpAdd, A: "b", B: "c"}, "a = b + c"},
		{&Invoke{Kind: InvokeVirtual, Dst: "r", Recv: "o", Class: "C", Method: "m", Args: []string{"x"}}, "r = o.m(x)"},
		{&Invoke{Kind: InvokeStatic, Class: "C", Method: "m"}, "C.m()"},
		{&If{A: "x", Op: CmpNE, B: NullOperand()}, "if x != null"},
		{&Return{}, "return"},
		{&Return{Src: "v"}, "return v"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestCmpOpNegate(t *testing.T) {
	ops := []CmpOp{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE}
	for _, op := range ops {
		if op.Negate().Negate() != op {
			t.Errorf("double negate of %v = %v", op, op.Negate().Negate())
		}
		if op.Negate() == op {
			t.Errorf("negate of %v is itself", op)
		}
	}
}

func TestProgramPrintRoundTripShape(t *testing.T) {
	p, _ := buildDiamond(t)
	out := Dump(p)
	for _, want := range []string{"class A {", "field x", "method m(p0)", "if i == 1", "this.x = i"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestMethodQualifiedNameAndCounts(t *testing.T) {
	_, m := buildDiamond(t)
	if m.QualifiedName() != "A#m" {
		t.Fatalf("QualifiedName = %q", m.QualifiedName())
	}
	if m.NumStmts() < 5 {
		t.Fatalf("NumStmts = %d, want >= 5", m.NumStmts())
	}
	if m.Entry() == nil || m.Entry().Index != 0 {
		t.Fatalf("Entry = %v", m.Entry())
	}
}

func TestValidateAcceptsBuilderOutput(t *testing.T) {
	p, _ := buildDiamond(t)
	if err := p.Validate(); err != nil {
		t.Fatalf("builder output rejected: %v", err)
	}
}

func TestValidateRejectsMalformedMethods(t *testing.T) {
	mk := func(blocks []*Block) *Program {
		p := NewProgram()
		c := NewClass("Bad", "")
		c.AddMethod(&Method{Name: "m", Blocks: blocks})
		p.AddClass(c)
		return p
	}
	cases := []struct {
		name   string
		blocks []*Block
	}{
		{"succ out of range", []*Block{{Stmts: []Stmt{&Return{}}, Succs: []int{3}}}},
		{"if not terminator", []*Block{
			{Stmts: []Stmt{&If{A: "x", Op: CmpEQ, B: IntOperand(0)}, &Return{}}, Succs: []int{0, 0}},
		}},
		{"if with one successor", []*Block{
			{Stmts: []Stmt{&If{A: "x", Op: CmpEQ, B: IntOperand(0)}}, Succs: []int{0}},
		}},
		{"stmt after return", []*Block{
			{Stmts: []Stmt{&Return{}, &Const{Dst: "x", Kind: ConstInt}}},
		}},
		{"return with successors", []*Block{
			{Stmts: []Stmt{&Return{}}, Succs: []int{0}},
		}},
		{"multi-succ without if", []*Block{
			{Stmts: []Stmt{&Const{Dst: "x", Kind: ConstInt}}, Succs: []int{0, 0}},
		}},
		{"empty multi-succ block", []*Block{
			{Succs: []int{0, 0}},
		}},
	}
	for _, c := range cases {
		if err := mk(c.blocks).Validate(); err == nil {
			t.Errorf("%s: not rejected", c.name)
		}
	}
	// Framework classes are exempt (trusted construction).
	p := NewProgram()
	fw := NewClass("FW", "")
	fw.Framework = true
	fw.AddMethod(&Method{Name: "m", Blocks: []*Block{{Succs: []int{9}}}})
	p.AddClass(fw)
	if err := p.Validate(); err != nil {
		t.Errorf("framework class should be exempt: %v", err)
	}
}
