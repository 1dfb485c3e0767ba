package pointer

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"sierra/internal/frontend"
	"sierra/internal/ir"
)

// parityConfig is one randomized analysis setup run under both solvers.
type parityConfig struct {
	prog    *ir.Program
	entries []Entry
	seeds   []Seed
	views   map[int]string
	policy  Policy
	// eventField, when set, installs an OnEvent hook that reifies
	// Runnable posts and chases one hop through this field.
	eventField string
}

// randomRichProgram generates a synthetic app exercising every transfer
// the solvers implement: allocation, moves, field loads/stores, static
// loads/stores, virtual dispatch over a class hierarchy, special and
// static calls, findViewById (constant and fallback), returns,
// cross-context seeds, and Runnable posts reified through an OnEvent
// hook (including FieldObjs reads, so field growth must re-fire events).
func randomRichProgram(r *rand.Rand) parityConfig {
	p := ir.NewProgram()
	frontend.InstallFramework(p)

	vars := []string{"a", "b", "c", "d", "e"}
	classes := []string{"Task", "Base", "Sub1", "Sub2"}
	soup := func(b *ir.MethodBuilder, n int, allowCalls bool) {
		for i := 0; i < n; i++ {
			dst := vars[r.Intn(len(vars))]
			src := vars[r.Intn(len(vars))]
			switch r.Intn(10) {
			case 0, 1:
				b.NewObj(dst, classes[r.Intn(len(classes))])
			case 2:
				b.Move(dst, src)
			case 3:
				b.Load(dst, src, "f")
			case 4:
				b.Store(src, "f", dst)
			case 5:
				b.SLoad(dst, "G", "s")
			case 6:
				b.SStore("G", "s", src)
			case 7:
				if allowCalls {
					b.Call(dst, src, "Base", "work", vars[r.Intn(len(vars))])
				} else {
					b.Move(dst, src)
				}
			case 8:
				if allowCalls {
					b.CallStatic(dst, "Helper", "make")
				} else {
					b.NewObj(dst, "Task")
				}
			default:
				b.Load(dst, src, "g")
			}
		}
	}

	task := ir.NewClass("Task", frontend.Object, frontend.RunnableIface)
	task.Fields = []string{"f", "g"}
	tb := ir.NewMethodBuilder(frontend.Run)
	soup(tb, 2+r.Intn(6), false)
	tb.Ret(vars[r.Intn(len(vars))])
	task.AddMethod(tb.Build())
	p.AddClass(task)

	base := ir.NewClass("Base", frontend.Object)
	base.Fields = []string{"f", "g"}
	wb := ir.NewMethodBuilder("work", "x")
	soup(wb, 1+r.Intn(4), false)
	wb.Ret(vars[r.Intn(len(vars))])
	base.AddMethod(wb.Build())
	p.AddClass(base)
	for _, sub := range []string{"Sub1", "Sub2"} {
		c := ir.NewClass(sub, "Base")
		c.Fields = []string{"f", "g"}
		sb := ir.NewMethodBuilder("work", "x")
		soup(sb, 1+r.Intn(4), false)
		sb.Ret(vars[r.Intn(len(vars))])
		c.AddMethod(sb.Build())
		p.AddClass(c)
	}

	helper := ir.NewClass("Helper", frontend.Object)
	hb := ir.NewMethodBuilder("make")
	hb.NewObj("h", classes[r.Intn(len(classes))])
	hb.Ret("h")
	helper.AddMethod(hb.Build())
	p.AddClass(helper)

	glob := ir.NewClass("G", frontend.Object)
	glob.Fields = []string{"s"}
	p.AddClass(glob)

	main := ir.NewClass("Main", frontend.ActivityClass)
	nEntries := 1 + r.Intn(2)
	var entryNames []string
	for e := 0; e < nEntries; e++ {
		name := fmt.Sprintf("main%d", e)
		entryNames = append(entryNames, name)
		mb := ir.NewMethodBuilder(name)
		soup(mb, 3+r.Intn(8), true)
		if r.Intn(2) == 0 {
			// Constant view id half the time, non-constant fallback else.
			if r.Intn(2) == 0 {
				mb.Int("id", int64(7+r.Intn(2)))
			} else {
				mb.Move("id", vars[r.Intn(len(vars))])
			}
			mb.Call("v", "this", "Main", frontend.FindViewByID, "id")
		}
		mb.NewObj("t", "Task")
		if r.Intn(3) > 0 {
			mb.Store("t", "f", vars[r.Intn(len(vars))])
		}
		mb.Int("vid", 7)
		mb.Call("w", "this", "Main", frontend.FindViewByID, "vid")
		mb.Call("", "w", frontend.ViewClass, frontend.Post, "t")
		soup(mb, r.Intn(5), true)
		mb.Ret("")
		main.AddMethod(mb.Build())
	}
	p.AddClass(main)
	p.Finalize()

	cfg := parityConfig{
		prog: p,
		views: map[int]string{
			7: frontend.ButtonClass,
			8: frontend.TextViewClass,
		},
		eventField: "f",
	}
	for _, name := range entryNames {
		cfg.entries = append(cfg.entries, Entry{Method: main.Methods[name], Ctx: EmptyContext})
	}
	runM := task.Methods[frontend.Run]
	for s := 0; s < r.Intn(3); s++ {
		cfg.seeds = append(cfg.seeds, Seed{
			SrcMethod: main.Methods[entryNames[r.Intn(len(entryNames))]],
			SrcVar:    vars[r.Intn(len(vars))],
			DstMethod: runM,
			DstVar:    vars[r.Intn(len(vars))],
		})
	}
	pols := []Policy{
		Insensitive{}, KCFA{K: 1}, KObj{K: 2}, Hybrid{K: 2},
		ActionSensitivePolicy{K: 2},
	}
	cfg.policy = pols[r.Intn(len(pols))]
	return cfg
}

// randomPartitionedProgram generates a synthetic app whose constraint
// graph splits into several independent families: each gets its own
// entry method, Task class, field names, and static class. Families are
// randomly straight-line, event-posting (instances discovered mid-run
// through a posted Runnable), or dispatching (a virtual call into the
// family's Task), and occasional seeds join families across entries.
func randomPartitionedProgram(r *rand.Rand) parityConfig {
	p := ir.NewProgram()
	frontend.InstallFramework(p)

	vars := []string{"a", "b", "c", "d"}
	nFam := 3 + r.Intn(6)
	var entries []Entry
	type fam struct {
		main  *ir.Class
		entry string
	}
	var fams []fam
	for fi := 0; fi < nFam; fi++ {
		field := fmt.Sprintf("f%d", fi)
		taskCls := fmt.Sprintf("Task%d", fi)
		statCls := fmt.Sprintf("G%d", fi)
		mainCls := fmt.Sprintf("Main%d", fi)
		kind := r.Intn(8) // 0-3 straight-line, 4-6 posting, 7 dispatching

		soup := func(b *ir.MethodBuilder, n int) {
			for i := 0; i < n; i++ {
				dst := vars[r.Intn(len(vars))]
				src := vars[r.Intn(len(vars))]
				switch r.Intn(7) {
				case 0, 1:
					b.NewObj(dst, taskCls)
				case 2:
					b.Move(dst, src)
				case 3:
					b.Load(dst, src, field)
				case 4:
					b.Store(src, field, dst)
				case 5:
					b.SLoad(dst, statCls, "s")
				default:
					b.SStore(statCls, "s", src)
				}
			}
		}

		task := ir.NewClass(taskCls, frontend.Object, frontend.RunnableIface)
		task.Fields = []string{field}
		tb := ir.NewMethodBuilder(frontend.Run)
		soup(tb, 2+r.Intn(5))
		tb.Ret(vars[r.Intn(len(vars))])
		task.AddMethod(tb.Build())
		if kind == 7 {
			wb := ir.NewMethodBuilder("work", "x")
			soup(wb, 1+r.Intn(3))
			wb.Ret(vars[r.Intn(len(vars))])
			task.AddMethod(wb.Build())
		}
		p.AddClass(task)

		glob := ir.NewClass(statCls, frontend.Object)
		glob.Fields = []string{"s"}
		p.AddClass(glob)

		main := ir.NewClass(mainCls, frontend.ActivityClass)
		entry := fmt.Sprintf("main%d", fi)
		mb := ir.NewMethodBuilder(entry)
		soup(mb, 3+r.Intn(6))
		switch {
		case kind >= 4 && kind <= 6:
			mb.NewObj("t", taskCls)
			if r.Intn(2) == 0 {
				mb.Store("t", field, vars[r.Intn(len(vars))])
			}
			mb.Int("vid", 7)
			mb.Call("w", "this", mainCls, frontend.FindViewByID, "vid")
			mb.Call("", "w", frontend.ViewClass, frontend.Post, "t")
		case kind == 7:
			mb.NewObj("t", taskCls)
			mb.Call(vars[r.Intn(len(vars))], "t", taskCls, "work", vars[r.Intn(len(vars))])
		}
		soup(mb, r.Intn(4))
		mb.Ret("")
		main.AddMethod(mb.Build())
		p.AddClass(main)
		fams = append(fams, fam{main: main, entry: entry})
	}
	p.Finalize()

	for _, f := range fams {
		entries = append(entries, Entry{Method: f.main.Methods[f.entry], Ctx: EmptyContext})
	}
	cfg := parityConfig{
		prog:       p,
		entries:    entries,
		views:      map[int]string{7: frontend.ButtonClass},
		eventField: "f0",
	}
	for s := 0; s < r.Intn(3); s++ {
		src := fams[r.Intn(len(fams))]
		dst := fams[r.Intn(len(fams))]
		cfg.seeds = append(cfg.seeds, Seed{
			SrcMethod: src.main.Methods[src.entry],
			SrcVar:    vars[r.Intn(len(vars))],
			DstMethod: dst.main.Methods[dst.entry],
			DstVar:    vars[r.Intn(len(vars))],
		})
	}
	pols := []Policy{
		Insensitive{}, KCFA{K: 1}, KObj{K: 2}, Hybrid{K: 2},
		ActionSensitivePolicy{K: 2},
	}
	cfg.policy = pols[r.Intn(len(pols))]
	return cfg
}

// runSolver analyzes cfg with the delta solver, or with the exhaustive
// reference when ref is set. The OnEvent hook mirrors the actions
// registry's shape: deterministic, idempotent, and reading both
// argument sets and object fields (via FieldObjs).
func runSolver(cfg parityConfig, ref bool) *Result {
	var onEvent func(Event) []Entry
	if cfg.eventField != "" {
		p := cfg.prog
		onEvent = func(ev Event) []Entry {
			if ev.API.Kind != frontend.APIPostRunnable || len(ev.Args) == 0 {
				return nil
			}
			var out []Entry
			spawn := func(o Obj) {
				m := p.ResolveMethod(o.Class, frontend.Run)
				if m == nil {
					return
				}
				out = append(out, Entry{
					Method: m,
					Ctx:    Context{Action: 42, Objs: o.id()},
					This:   []Obj{o},
				})
			}
			for _, o := range ev.Args[0] {
				spawn(o)
				// Chase one field hop so event refiring depends on field
				// points-to growth, not just the argument sets.
				for _, q := range ev.FieldObjs(o, cfg.eventField) {
					spawn(q)
				}
			}
			return out
		}
	}
	c := Config{
		Prog:    cfg.prog,
		Policy:  cfg.policy,
		Entries: cfg.entries,
		Seeds:   cfg.seeds,
		Views:   cfg.views,
		OnEvent: onEvent,
	}
	if !ref {
		return Analyze(c)
	}
	a := newAnalyzer(c)
	a.runExhaustive()
	return a.res
}

// requireIdenticalResults asserts full observable equality of two
// results: pass count, instance discovery order, entry order, per-site
// callee edge order, the exact contents of every var, field and static
// set, and the interner's object order (see dumpResult).
func requireIdenticalResults(t *testing.T, want, got *Result) {
	t.Helper()
	w, g := strings.Split(dumpResult(want, nil), "\n"), strings.Split(dumpResult(got, nil), "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			t.Fatalf("results differ at dump line %d:\n  exhaustive: %s\n  delta:      %s", i, wl, gl)
		}
	}
}

// TestSolverParityProperty runs randomized programs from each generator
// under both solvers and requires bit-for-bit identical results.
func TestSolverParityProperty(t *testing.T) {
	for _, gen := range []struct {
		name  string
		fn    func(*rand.Rand) parityConfig
		count int
	}{
		{"rich", randomRichProgram, 120},
		{"partitioned", randomPartitionedProgram, 60},
	} {
		t.Run(gen.name, func(t *testing.T) {
			f := func(seed int64) bool {
				cfg := gen.fn(rand.New(rand.NewSource(seed)))
				want := runSolver(cfg, true)
				got := runSolver(cfg, false)
				requireIdenticalResults(t, want, got)
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: gen.count}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSolverParityLinearPrograms re-runs the original straight-line
// generator under both solvers (no calls or events: pins the pure
// Move/Load/Store delta paths).
func TestSolverParityLinearPrograms(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, m := randomLinearProgram(r)
		cfg := parityConfig{
			prog:    p,
			entries: []Entry{{Method: m, Ctx: EmptyContext}},
			policy:  ActionSensitivePolicy{K: 2},
		}
		want := runSolver(cfg, true)
		got := runSolver(cfg, false)
		requireIdenticalResults(t, want, got)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
