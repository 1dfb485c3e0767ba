package shbg

import (
	"fmt"
	"slices"

	"sierra/internal/actions"
	"sierra/internal/apk"
	"sierra/internal/cfg"
	"sierra/internal/frontend"
	"sierra/internal/ir"
	"sierra/internal/pointer"
)

// This file keeps the n² scans that rules 4 and 5 ran before the spawn
// index, as the reference TestRulesMatchReference and FuzzRules hold
// the index to.

// ruleIntraProcReference is rule 4 over every ordered pair of actions.
func (g *Graph) ruleIntraProcReference() {
	domCache := map[*ir.Method]*cfg.DomTree{}
	for _, a := range g.Reg.Actions() {
		sa, ok := singleSpawn(a)
		if !ok || !sa.Site.Valid() {
			continue
		}
		for _, b := range g.Reg.Actions() {
			if a.ID == b.ID {
				continue
			}
			sb, ok := singleSpawn(b)
			if !ok || !sb.Site.Valid() || sa.Site.Method != sb.Site.Method {
				continue
			}
			if !posteable(a, b, sa, sb) {
				continue
			}
			if !g.spawnPairDirty(a.ID, b.ID, sa.From, sb.From) {
				continue
			}
			dom := domCache[sa.Site.Method]
			if dom == nil {
				dom = cfg.MethodDominators(sa.Site.Method)
				domCache[sa.Site.Method] = dom
			}
			if cfg.StmtDominates(dom, sa.Site, sb.Site) {
				g.addEdge(a.ID, b.ID, RuleIntraProc)
			}
		}
	}
}

// ruleInterProcReference is rule 5 over every ordered pair of actions.
func (g *Graph) ruleInterProcReference(res *pointer.Result) {
	icfg := cfg.NewICFG(res.CalleeMethods())
	for _, a := range g.Reg.Actions() {
		sa, ok := singleSpawn(a)
		if !ok || !sa.Site.Valid() || sa.From < 0 {
			continue
		}
		for _, b := range g.Reg.Actions() {
			if a.ID == b.ID || g.hb[a.ID].Has(b.ID) {
				continue
			}
			sb, ok := singleSpawn(b)
			if !ok || !sb.Site.Valid() || sb.From != sa.From {
				continue
			}
			if sa.Site.Method == sb.Site.Method || !posteable(a, b, sa, sb) {
				continue
			}
			if !g.spawnPairDirty(a.ID, b.ID, sa.From, sb.From) {
				continue
			}
			spawner := g.Reg.Get(sa.From)
			dominated := len(spawner.Roots) > 0
			for _, root := range spawner.Roots {
				g.reachQueries++
				if icfg.ReachesWithoutStrict(root, sa.Site, sb.Site) {
					dominated = false
					break
				}
				g.reachQueries++
				if !icfg.Reaches(root, sb.Site) {
					dominated = false
					break
				}
			}
			if dominated {
				g.addEdge(a.ID, b.ID, RuleInterProc)
			}
		}
	}
}

// baseRulesReference is baseRules with rules 4 and 5 run by the n²
// scans.
func (g *Graph) baseRulesReference(res *pointer.Result, opts Options) {
	g.recording = true
	if !opts.disabled(RuleInvocation) {
		g.ruleInvocation()
	}
	if !opts.disabled(RuleLifecycle) || !opts.disabled(RuleGUI) {
		g.ruleHarnessDominance(opts.disabled(RuleLifecycle), opts.disabled(RuleGUI), opts.DisableGUITeardownOrder)
	}
	if !opts.disabled(RuleIntraProc) {
		g.ruleIntraProcReference()
	}
	if !opts.disabled(RuleInterProc) {
		g.ruleInterProcReference(res)
	}
	g.recording = false
}

// buildReference is Build over the reference rules.
func buildReference(reg *actions.Registry, res *pointer.Result, opts Options) *Graph {
	g := newGraph(reg)
	g.baseRulesReference(res, opts)
	g.closeRules(opts)
	return g
}

// rederiveReference is rederive over the reference rules.
func rederiveReference(prev *Graph, reg *actions.Registry, res *pointer.Result, opts Options, dirty map[int]bool) *Graph {
	scratch := newGraph(reg)
	scratch.restrict = dirty
	for _, e := range prev.base {
		if !edgeDirty(reg, dirty, e) {
			scratch.addEdge(e.a, e.b, e.rule)
		}
	}
	scratch.baseRulesReference(res, opts)
	return scratch
}

// diffRules describes the first difference between two graphs in what
// the spawn index must preserve: the recorded base-edge sequence, the
// per-rule tallies, the reachability query count and every closed row.
// It returns "" when they agree.
func diffRules(got, want *Graph) string {
	if len(got.base) != len(want.base) {
		return fmt.Sprintf("%d base edges, reference %d", len(got.base), len(want.base))
	}
	for i := range got.base {
		if got.base[i] != want.base[i] {
			return fmt.Sprintf("base edge %d is %+v, reference %+v", i, got.base[i], want.base[i])
		}
	}
	if got.ruleCounts != want.ruleCounts {
		return fmt.Sprintf("rule tallies %v, reference %v", got.ruleCounts, want.ruleCounts)
	}
	if got.reachQueries != want.reachQueries {
		return fmt.Sprintf("%d reach queries, reference %d", got.reachQueries, want.reachQueries)
	}
	if got.n != want.n {
		return fmt.Sprintf("%d actions, reference %d", got.n, want.n)
	}
	for a := 0; a < got.n; a++ {
		gb, wb := got.hb[a].AppendBits(nil), want.hb[a].AppendBits(nil)
		if !slices.Equal(gb, wb) {
			return fmt.Sprintf("row %d is %v, reference %v", a, gb, wb)
		}
	}
	return ""
}

// postFanApp posts runnables R0..Rk-1 in turn from A.onCreate: inline,
// where rule 4 orders each before every later one, or through helpers
// post0..postk-1 that onCreate calls in turn, where rule 5 does. Each
// spawned action meets several partners in its index list, so a change
// in list order changes the base-edge sequence; the corpus apps give
// rules 4 and 5 almost nothing to order.
func postFanApp(k int, helpers bool) *apk.App {
	p := ir.NewProgram()
	frontend.InstallFramework(p)
	act := ir.NewClass("A", frontend.ActivityClass)
	oc := ir.NewMethodBuilder(frontend.OnCreate)
	oc.Int("id", 1)
	oc.Call("v", "this", "A", frontend.FindViewByID, "id")
	for i := 0; i < k; i++ {
		r := fmt.Sprintf("R%d", i)
		c := ir.NewClass(r, frontend.Object, frontend.RunnableIface)
		run := ir.NewMethodBuilder(frontend.Run)
		run.Ret("")
		c.AddMethod(run.Build())
		p.AddClass(c)
		if !helpers {
			v := fmt.Sprintf("r%d", i) // one local per post: points-to is flow-insensitive
			oc.NewObj(v, r)
			oc.Call("", "v", frontend.ViewClass, frontend.Post, v)
			continue
		}
		h := ir.NewMethodBuilder(fmt.Sprintf("post%d", i), "v")
		h.NewObj("r", r)
		h.Call("", "v", frontend.ViewClass, frontend.Post, "r")
		h.Ret("")
		act.AddMethod(h.Build())
		oc.Call("", "this", "A", fmt.Sprintf("post%d", i), "v")
	}
	oc.Ret("")
	act.AddMethod(oc.Build())
	p.AddClass(act)
	p.Finalize()
	return &apk.App{
		Name: "postfan", Program: p,
		Manifest: apk.Manifest{Activities: []apk.Component{{Class: "A", Layout: "l"}}},
		Layouts: map[string]*apk.Layout{"l": {Name: "l",
			Root: &apk.View{ID: 1, Type: frontend.ViewClass}}},
	}
}
