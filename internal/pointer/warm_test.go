package pointer

import (
	"testing"

	"sierra/internal/frontend"
	"sierra/internal/ir"
)

// TestWarmReSolvePatchedCalls re-solves a body patched with a donor's
// statement objects: the calls sit where they sat, so the re-solve
// keeps their edges and adds only the inserted allocation's facts.
func TestWarmReSolvePatchedCalls(t *testing.T) {
	body := func(extra bool) *ir.Method {
		b := ir.NewMethodBuilder("main")
		b.NewObj("a", "A")
		b.Call("r", "a", "A", "get")
		if extra {
			b.NewObj("w", "A")
		}
		b.Ret("")
		return b.Build()
	}
	c := ir.NewClass("A", frontend.Object)
	get := ir.NewMethodBuilder("get")
	get.NewObj("x", "A")
	get.Ret("x")
	c.AddMethod(get.Build())
	c.AddMethod(body(false))
	p := prog(c)
	main := c.Methods["main"]

	res, w := AnalyzeWarm(Config{Prog: p, Policy: Hybrid{K: 2}, Entries: []Entry{entry(main)}})
	if w == nil {
		t.Fatal("no warm handle")
	}
	if err := main.ReplaceBody(body(true)); err != nil {
		t.Fatal(err)
	}
	p.Finalize()
	if err := w.ReSolve([]*ir.Method{main}, nil); err != nil {
		t.Fatalf("ReSolve: %v", err)
	}
	id := res.MethodInstances(main)[0]
	if got := res.LocalPointsTo(id, "w").Len(); got != 1 {
		t.Errorf("inserted local w points to %d objects, want 1", got)
	}
	if got := res.LocalPointsTo(id, "r").Len(); got != 1 {
		t.Errorf("call result r points to %d objects, want 1", got)
	}
	callPos := ir.Pos{Method: main, Block: 0, Index: 1}
	if got := res.CalleesAt(id, callPos); len(got) != 1 || res.Method(got[0]) != c.Methods["get"] {
		t.Errorf("callees at %v = %v, want A#get", callPos, got)
	}
}
