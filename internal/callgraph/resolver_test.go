package callgraph

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sierra/internal/frontend"
	"sierra/internal/ir"
)

// The reference below resolves every call anew: each virtual
// call filters Classes() through IsSubtype, the subtype definition the
// resolver's direct-subtype index encodes. TestResolverMatchesReference
// holds the index, the memoized targets and the growing graphs to it.

func refSubtypes(p *ir.Program, root string) []*ir.Class {
	var out []*ir.Class
	for _, c := range p.Classes() {
		if c.Name != root && p.IsSubtype(c.Name, root) {
			out = append(out, c)
		}
	}
	return out
}

func refTargets(p *ir.Program, inv *ir.Invoke) []*ir.Method {
	if inv.Kind != ir.InvokeVirtual {
		if m := p.ResolveMethod(inv.Class, inv.Method); m != nil {
			return []*ir.Method{m}
		}
		return nil
	}
	set := map[*ir.Method]bool{}
	if m := p.ResolveMethod(inv.Class, inv.Method); m != nil {
		set[m] = true
	}
	for _, sub := range refSubtypes(p, inv.Class) {
		if m := sub.Methods[inv.Method]; m != nil {
			set[m] = true
		}
	}
	return sortedMethods(set)
}

func sortedMethods(set map[*ir.Method]bool) []*ir.Method {
	var out []*ir.Method
	for m := range set {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].QualifiedName() < out[j].QualifiedName()
	})
	return out
}

// invokes lists m's call sites.
func invokes(m *ir.Method) []*ir.Invoke {
	var out []*ir.Invoke
	for _, blk := range m.Blocks {
		for _, s := range blk.Stmts {
			if inv, ok := s.(*ir.Invoke); ok {
				out = append(out, inv)
			}
		}
	}
	return out
}

// refReach is the set of methods reachable from roots when every call
// resolves through refTargets.
func refReach(p *ir.Program, roots []*ir.Method) map[*ir.Method]bool {
	seen := map[*ir.Method]bool{}
	work := append([]*ir.Method(nil), roots...)
	for len(work) > 0 {
		m := work[len(work)-1]
		work = work[:len(work)-1]
		if m == nil || seen[m] {
			continue
		}
		seen[m] = true
		for _, inv := range invokes(m) {
			work = append(work, refTargets(p, inv)...)
		}
	}
	return seen
}

// Names that are never registered. IsSubtype treats them differently:
// a class is not a subtype of an unregistered superclass, but it is a
// subtype of an unregistered interface it names.
const (
	ghostSuper = "GhostBase"
	ghostIface = "GhostIface"
)

var methodNames = []string{"run", "get", "put", "tick"}

// randomHierarchy builds class chains, interface diamonds and both
// unregistered names over the framework model, with method bodies that
// make random virtual, static and special calls on every static type.
func randomHierarchy(rng *rand.Rand) *ir.Program {
	p := ir.NewProgram()
	frontend.InstallFramework(p)
	var ifaces, classes []string
	for i, n := 0, 2+rng.Intn(4); i < n; i++ {
		var sup []string
		for _, j := range rng.Perm(len(ifaces)) {
			if len(sup) < 2 && rng.Intn(2) == 0 {
				sup = append(sup, ifaces[j])
			}
		}
		if rng.Intn(4) == 0 {
			sup = append(sup, ghostIface)
		}
		name := fmt.Sprintf("I%d", i)
		p.AddClass(ir.NewClass(name, "", sup...))
		ifaces = append(ifaces, name)
	}
	for i, n := 0, 4+rng.Intn(12); i < n; i++ {
		super := frontend.Object
		switch r := rng.Intn(6); {
		case r == 0:
			super = ghostSuper
		case r <= 3 && len(classes) > 0:
			super = classes[rng.Intn(len(classes))]
		}
		var impl []string
		for _, itf := range ifaces {
			if rng.Intn(3) == 0 {
				impl = append(impl, itf)
			}
		}
		if rng.Intn(5) == 0 {
			impl = append(impl, ghostIface)
		}
		name := fmt.Sprintf("C%d", i)
		p.AddClass(ir.NewClass(name, super, impl...))
		classes = append(classes, name)
	}
	types := append(append([]string{frontend.Object, ghostSuper, ghostIface}, ifaces...), classes...)
	calls := func(b *ir.MethodBuilder) {
		for k := rng.Intn(3); k > 0; k-- {
			typ := types[rng.Intn(len(types))]
			name := methodNames[rng.Intn(len(methodNames))]
			switch rng.Intn(3) {
			case 0:
				b.Call("", "this", typ, name)
			case 1:
				b.CallStatic("", typ, name)
			default:
				b.CallSpecial("", "this", typ, name)
			}
		}
	}
	for _, name := range append(append([]string(nil), ifaces...), classes...) {
		c := p.Class(name)
		for _, mn := range methodNames {
			if rng.Intn(2) == 0 {
				continue
			}
			b := ir.NewMethodBuilder(mn)
			calls(b)
			then, els := b.IfStar()
			b.SetBlock(then)
			calls(b)
			b.Goto(els)
			calls(b)
			b.Ret("")
			c.AddMethod(b.Build())
		}
	}
	p.Finalize()
	return p
}

// appMethods lists the program's non-framework methods in name order.
func appMethods(p *ir.Program) []*ir.Method {
	var out []*ir.Method
	for _, c := range p.Classes() {
		if !c.Framework {
			out = append(out, c.MethodsSorted()...)
		}
	}
	return out
}

func sameMethods(a, b []*ir.Method) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func classNames(cs []*ir.Class) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Name
	}
	return out
}

func names(ms []*ir.Method) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.QualifiedName()
	}
	return out
}

// checkAgainstReference grows one graph through r from entries, one
// root at a time, and compares it with the unmemoized reference: each
// growth must add exactly what its root reaches beyond the earlier
// roots, every reached call site must resolve to the reference
// targets, and a fresh graph grown from one entry alone must reach
// what that entry reaches.
func checkAgainstReference(t *testing.T, p *ir.Program, r *Resolver, entries []*ir.Method) {
	t.Helper()
	g := r.NewCHA()
	before := map[*ir.Method]bool{}
	for i, e := range entries {
		got := sortedMethods(setOf(g.Grow(nil, e)))
		after := refReach(p, entries[:i+1])
		var want []*ir.Method
		for _, m := range sortedMethods(after) {
			if !before[m] {
				want = append(want, m)
			}
		}
		if !sameMethods(got, want) {
			t.Fatalf("Grow(%s) added %v, want %v", e.QualifiedName(), names(got), names(want))
		}
		before = after
	}
	for m := range before {
		for _, inv := range invokes(m) {
			if got, ref := r.targets(inv), refTargets(p, inv); !sameMethods(got, ref) {
				t.Errorf("targets(%s: %s#%s kind %d) = %v, want %v", m.QualifiedName(), inv.Class, inv.Method, inv.Kind, names(got), names(ref))
			}
		}
	}
	for _, e := range entries {
		got := NewResolver(p).NewCHA().Grow(nil, e)
		ref := refReach(p, []*ir.Method{e})
		if !sameMethods(sortedMethods(setOf(got)), sortedMethods(ref)) || len(got) != len(ref) {
			t.Errorf("Grow(%s) on a fresh graph = %v, want %v", e.QualifiedName(), names(got), names(sortedMethods(ref)))
		}
	}
}

// checkSubtypes compares the index-backed subtype lists with the
// IsSubtype filter for every class and both unregistered names.
func checkSubtypes(t *testing.T, p *ir.Program, r *Resolver) {
	t.Helper()
	roots := []string{ghostSuper, ghostIface}
	for _, c := range p.Classes() {
		roots = append(roots, c.Name)
	}
	for _, root := range roots {
		if got, ref := classNames(r.subtypes(root)), classNames(refSubtypes(p, root)); fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Errorf("subtypes(%s) = %v, want %v", root, got, ref)
		}
	}
}

// TestResolverMatchesReference builds several entry sets through one
// resolver per random hierarchy; every graph must equal the reference.
func TestResolverMatchesReference(t *testing.T) {
	t.Run("subclasses", func(t *testing.T) {
		p := ir.NewProgram()
		p.AddClass(ir.NewClass("Task", ""))
		p.AddClass(ir.NewClass("A", "Task"))
		p.AddClass(ir.NewClass("B", "A"))
		p.AddClass(ir.NewClass("C", ""))
		r := NewResolver(p)
		if subs := classNames(r.subtypes("Task")); fmt.Sprint(subs) != "[A B]" {
			t.Fatalf("subtypes(Task) = %v, want [A B]", subs)
		}
		for _, root := range []string{"Task", "A", "B", "C", ghostSuper} {
			if got, ref := classNames(r.subtypes(root)), classNames(refSubtypes(p, root)); fmt.Sprint(got) != fmt.Sprint(ref) {
				t.Errorf("subtypes(%s) = %v, want %v", root, got, ref)
			}
		}
	})
	sawGhostSuper, sawGhostIface := false, false
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomHierarchy(rng)
		ms := appMethods(p)
		if len(ms) == 0 {
			continue
		}
		for _, c := range p.Classes() {
			sawGhostSuper = sawGhostSuper || c.Super == ghostSuper
			for _, itf := range c.Interfaces {
				sawGhostIface = sawGhostIface || itf == ghostIface
			}
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := NewResolver(p)
			checkSubtypes(t, p, r)
			for trial := 0; trial < 4; trial++ {
				k := 1 + rng.Intn(3)
				if k > len(ms) {
					k = len(ms)
				}
				var entries []*ir.Method
				for _, i := range rng.Perm(len(ms))[:k] {
					entries = append(entries, ms[i])
				}
				checkAgainstReference(t, p, r, entries)
			}
		})
	}
	if !sawGhostSuper || !sawGhostIface {
		t.Errorf("generator never used an unregistered name (super %t, interface %t)", sawGhostSuper, sawGhostIface)
	}
}
