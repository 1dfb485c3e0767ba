package harness

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"sierra/internal/apk"
	"sierra/internal/corpus"
	"sierra/internal/frontend"
	"sierra/internal/ir"
)

// The reference below is callback discovery without the growing
// graph: every fixpoint round rebuilds the CHA graph from all
// entries, scans every reachable method in name order, skips
// registrations already seen by a rendered key, and parents a new one
// by the per-root reachable sets of the round's graph, tried in root
// order. Its calls resolve through ir.Program.IsSubtype over the class
// snapshot (memoized per app and call shape, and each root's reachable
// set per round, so the scenario family scaled ten-fold stays
// checkable). The equality checks hold discoverSlots to it.

// refResolver resolves calls under CHA by filtering the class snapshot
// through IsSubtype.
type refResolver struct {
	p       *ir.Program
	classes []*ir.Class
	memo    map[refCall][]*ir.Method
}

type refCall struct {
	kind          ir.InvokeKind
	class, method string
}

func newRefResolver(p *ir.Program) *refResolver {
	return &refResolver{p: p, classes: p.Classes(), memo: map[refCall][]*ir.Method{}}
}

func (r *refResolver) targets(inv *ir.Invoke) []*ir.Method {
	key := refCall{inv.Kind, inv.Class, inv.Method}
	if out, ok := r.memo[key]; ok {
		return out
	}
	var out []*ir.Method
	if inv.Kind != ir.InvokeVirtual {
		if m := r.p.ResolveMethod(inv.Class, inv.Method); m != nil {
			out = []*ir.Method{m}
		}
	} else {
		seen := map[*ir.Method]bool{}
		add := func(m *ir.Method) {
			if m != nil && !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
		add(r.p.ResolveMethod(inv.Class, inv.Method))
		for _, c := range r.classes {
			if c.Name != inv.Class && r.p.IsSubtype(c.Name, inv.Class) {
				add(c.Methods[inv.Method])
			}
		}
	}
	r.memo[key] = out
	return out
}

// refCHA is a call graph built once from a fixed entry set.
type refCHA struct {
	callees   map[ir.Pos][]*ir.Method
	reachable map[*ir.Method]bool
	from      map[*ir.Method]map[*ir.Method]bool
}

func refBuild(r *refResolver, entries []*ir.Method) *refCHA {
	g := &refCHA{
		callees:   map[ir.Pos][]*ir.Method{},
		reachable: map[*ir.Method]bool{},
		from:      map[*ir.Method]map[*ir.Method]bool{},
	}
	work := append([]*ir.Method(nil), entries...)
	for len(work) > 0 {
		m := work[len(work)-1]
		work = work[:len(work)-1]
		if m == nil || g.reachable[m] {
			continue
		}
		g.reachable[m] = true
		for bi, blk := range m.Blocks {
			for si, s := range blk.Stmts {
				if inv, ok := s.(*ir.Invoke); ok {
					targets := r.targets(inv)
					g.callees[ir.Pos{Method: m, Block: bi, Index: si}] = targets
					work = append(work, targets...)
				}
			}
		}
	}
	return g
}

func (g *refCHA) reachableMethods() []*ir.Method {
	out := make([]*ir.Method, 0, len(g.reachable))
	for m := range g.reachable {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].QualifiedName() < out[j].QualifiedName() })
	return out
}

// reachableFrom is the subset of the graph reachable from root.
func (g *refCHA) reachableFrom(root *ir.Method) map[*ir.Method]bool {
	if seen, ok := g.from[root]; ok {
		return seen
	}
	seen := map[*ir.Method]bool{root: true}
	work := []*ir.Method{root}
	for len(work) > 0 {
		m := work[len(work)-1]
		work = work[:len(work)-1]
		for bi, blk := range m.Blocks {
			for si := range blk.Stmts {
				for _, t := range g.callees[ir.Pos{Method: m, Block: bi, Index: si}] {
					if !seen[t] {
						seen[t] = true
						work = append(work, t)
					}
				}
			}
		}
	}
	g.from[root] = seen
	return seen
}

// refRoot is a discovery entry and the first slot it came from.
type refRoot struct {
	slot int
	m    *ir.Method
}

// refEntryMethods returns the round's entries (lifecycle callbacks,
// then every slot's callback implementations) and each distinct entry
// with its first slot, sorted by slot, then name.
func refEntryMethods(p *ir.Program, activity string, slots []*GUISlot) ([]*ir.Method, []refRoot) {
	var entries []*ir.Method
	var roots []refRoot
	seen := map[*ir.Method]bool{}
	add := func(m *ir.Method, slot int) {
		entries = append(entries, m)
		if !seen[m] {
			seen[m] = true
			roots = append(roots, refRoot{slot, m})
		}
	}
	for _, lc := range []string{
		frontend.OnCreate, frontend.OnStart, frontend.OnResume,
		frontend.OnPause, frontend.OnStop, frontend.OnRestart, frontend.OnDestroy,
	} {
		if m := p.ResolveMethod(activity, lc); m != nil {
			add(m, -1)
		}
	}
	for i, slot := range slots {
		for _, cls := range slot.Classes {
			if m := p.ResolveMethod(cls, slot.Callback); m != nil {
				add(m, i)
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		if roots[i].slot != roots[j].slot {
			return roots[i].slot < roots[j].slot
		}
		return roots[i].m.QualifiedName() < roots[j].m.QualifiedName()
	})
	return entries, roots
}

// refParentSlot is the slot of the first root reaching reg.
func refParentSlot(g *refCHA, roots []refRoot, reg *ir.Method) int {
	for _, r := range roots {
		if g.reachableFrom(r.m)[reg] {
			return r.slot
		}
	}
	return -1
}

// refDiscoverSlots is the reference discovery fixpoint for one
// activity, resolving through a snapshot taken before any harness
// class exists.
func refDiscoverSlots(app *apk.App, res *refResolver, comp apk.Component) []*GUISlot {
	p := app.Program
	var slots []*GUISlot
	seen := map[string]bool{}
	if comp.Layout != "" {
		if l := app.Layouts[comp.Layout]; l != nil {
			for _, v := range l.AllViews() {
				kinds := make([]string, 0, len(v.XMLCallbacks))
				for kind := range v.XMLCallbacks {
					kinds = append(kinds, kind)
				}
				sort.Strings(kinds)
				for _, kind := range kinds {
					target := v.XMLCallbacks[kind]
					key := "xml:" + kind + ":" + target
					if seen[key] || p.ResolveMethod(comp.Class, target) == nil {
						continue
					}
					seen[key] = true
					slots = append(slots, &GUISlot{
						Callback: target, Declarer: comp.Class, Classes: []string{comp.Class},
						BindActivity: true, Parent: -1, FromXML: true,
					})
				}
			}
		}
	}
	for {
		entries, roots := refEntryMethods(p, comp.Class, slots)
		g := refBuild(res, entries)
		added := false
		for _, m := range g.reachableMethods() {
			if m.Class != nil && m.Class.Framework {
				continue
			}
			for bi, blk := range m.Blocks {
				for si, s := range blk.Stmts {
					inv, ok := s.(*ir.Invoke)
					if !ok {
						continue
					}
					api, ok := frontend.Recognize(p, inv)
					if !ok || api.Kind != frontend.APISetListener {
						continue
					}
					key := fmt.Sprintf("reg:%s:%s@%d.%d", api.Callback, m.QualifiedName(), bi, si)
					if seen[key] {
						continue
					}
					seen[key] = true
					arg := inv.Args[api.Arg]
					cls, bindAct := listenerClasses(res.classes, m, arg, api.Callback)
					slots = append(slots, &GUISlot{
						Callback: api.Callback, Declarer: declarerOf(api.Callback),
						Classes: cls, BindActivity: bindAct,
						Parent:   refParentSlot(g, roots, m),
						Bindings: []Binding{{SrcMethod: m, SrcVar: arg}},
					})
					added = true
				}
			}
		}
		if !added {
			return slots
		}
	}
}

// slotDiff describes the first difference between two discovered slot
// lists (order, callback, declarer, classes, parent, activity binding,
// registration bindings, XML origin), or returns "".
func slotDiff(got, want []*GUISlot) string {
	render := func(s *GUISlot) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%s decl=%s classes=%v parent=%d bind=%t xml=%t", s.Callback, s.Declarer, s.Classes, s.Parent, s.BindActivity, s.FromXML)
		for _, bd := range s.Bindings {
			fmt.Fprintf(&b, " %p:%s:%s", bd.SrcMethod, bd.SrcMethod.QualifiedName(), bd.SrcVar)
		}
		return b.String()
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			return fmt.Sprintf("slot %d missing, want %s", i, render(want[i]))
		case i >= len(want):
			return fmt.Sprintf("extra slot %d: %s", i, render(got[i]))
		}
		if g, w := render(got[i]), render(want[i]); g != w {
			return fmt.Sprintf("slot %d:\n  got  %s\n  want %s", i, g, w)
		}
	}
	return ""
}

// checkDiscoveryMatchesReference runs the reference discovery for every
// activity of app, then Generate, and requires identical slot lists.
func checkDiscoveryMatchesReference(t *testing.T, name string, app *apk.App) {
	t.Helper()
	res := newRefResolver(app.Program)
	want := make([][]*GUISlot, len(app.Manifest.Activities))
	for i, comp := range app.Manifest.Activities {
		want[i] = refDiscoverSlots(app, res, comp)
	}
	for i, h := range Generate(app) {
		if d := slotDiff(h.GUI, want[i]); d != "" {
			t.Fatalf("%s: activity %s: %s", name, h.Activity, d)
		}
	}
}

// tenfoldSeeds is how many seeds of the ten-fold scenario family,
// table2-x10, the reference check takes; every other family takes 8.
// The race detector build lowers it (reference_race_test.go).
var tenfoldSeeds int64 = 8

// TestDiscoveryMatchesReference holds discoverSlots to the per-round
// rebuild on the test-local apps, the handmade figure apps, SynthLarge,
// the 20 paper apps and every scenario family at seeds 0–7.
func TestDiscoveryMatchesReference(t *testing.T) {
	p := nestedRegistrationApp()
	p.Finalize()
	checkDiscoveryMatchesReference(t, "nested", appFor(p, "A"))
	checkDiscoveryMatchesReference(t, "order-AB", orderApp("A", "B"))
	checkDiscoveryMatchesReference(t, "order-BA", orderApp("B", "A"))
	checkDiscoveryMatchesReference(t, "shared-helper", sharedHelperApp())
	checkDiscoveryMatchesReference(t, "newsapp", corpus.NewsApp())
	checkDiscoveryMatchesReference(t, "dbapp", corpus.DatabaseApp())
	checkDiscoveryMatchesReference(t, "sudoku", corpus.SudokuTimerApp())
	checkDiscoveryMatchesReference(t, "nullguard", corpus.NullGuardApp())
	checkDiscoveryMatchesReference(t, "SynthLarge", corpus.SynthLarge())
	for _, row := range corpus.PaperRows() {
		app, _ := corpus.NamedApp(row)
		checkDiscoveryMatchesReference(t, row.Name, app)
	}
	for _, sc := range corpus.Scenarios() {
		seeds := int64(8)
		if sc.Name == "table2-x10" {
			seeds = tenfoldSeeds
		}
		for seed := int64(0); seed < seeds; seed++ {
			name := fmt.Sprintf("%s-%d", sc.Name, seed)
			app, _ := sc.Generate(name, seed, nil)
			checkDiscoveryMatchesReference(t, name, app)
		}
	}
}
