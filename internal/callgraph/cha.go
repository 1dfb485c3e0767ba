// Package callgraph builds the cheap class-hierarchy-analysis (CHA)
// call graph that harness generation's callback discovery runs on. The
// precise, context-sensitive call graph the paper gets from WALA is
// built on the fly by the pointer analysis (internal/pointer).
package callgraph

import (
	"sort"

	"sierra/internal/ir"
)

// Resolver answers class-hierarchy queries for one program. It holds a
// name-sorted snapshot of the program's classes and an index of each
// type's direct subtypes, and memoizes each static type's subtype list
// and each call's CHA targets, so a call is resolved once however many
// graphs grow through the resolver. The program's class set and method
// tables must not change while the resolver is in use.
type Resolver struct {
	prog    *ir.Program
	classes []*ir.Class
	// direct maps a type name to the snapshot classes naming it as
	// their superclass (only when that superclass is registered) or
	// among their interfaces (registered or not) — exactly the edges
	// ir.Program.IsSubtype walks, reversed.
	direct map[string][]*ir.Class
	// subs maps a static type to its proper subtypes, name-sorted.
	subs map[string][]*ir.Class
	// calls maps a call to its CHA targets, sorted by qualified name.
	calls map[callKey][]*ir.Method
}

// callKey identifies a call for target resolution: CHA targets depend
// only on the dispatch kind, the static class and the method name.
type callKey struct {
	kind   ir.InvokeKind
	class  string
	method string
}

// NewResolver snapshots p's classes and indexes their direct subtypes.
func NewResolver(p *ir.Program) *Resolver {
	r := &Resolver{
		prog:    p,
		classes: p.Classes(),
		direct:  make(map[string][]*ir.Class),
		subs:    make(map[string][]*ir.Class),
		calls:   make(map[callKey][]*ir.Method),
	}
	for _, c := range r.classes {
		if c.Super != "" && p.Class(c.Super) != nil {
			r.direct[c.Super] = append(r.direct[c.Super], c)
		}
		for _, itf := range c.Interfaces {
			r.direct[itf] = append(r.direct[itf], c)
		}
	}
	return r
}

// Classes returns the snapshot of the program's classes, sorted by
// name. The slice is shared; callers must not modify it.
func (r *Resolver) Classes() []*ir.Class { return r.classes }

// subtypes returns every snapshot class other than root that is a
// subtype of root (ir.Program.IsSubtype), sorted by name: the classes
// the direct-subtype index reaches from root.
func (r *Resolver) subtypes(root string) []*ir.Class {
	if out, ok := r.subs[root]; ok {
		return out
	}
	var out []*ir.Class
	seen := map[string]bool{root: true}
	work := []string{root}
	for len(work) > 0 {
		t := work[len(work)-1]
		work = work[:len(work)-1]
		for _, c := range r.direct[t] {
			if !seen[c.Name] {
				seen[c.Name] = true
				out = append(out, c)
				work = append(work, c.Name)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	r.subs[root] = out
	return out
}

// targets returns the possible callees of inv under CHA, sorted by
// qualified name: a static or special call's one implementation, or a
// virtual call's static-type resolution plus every subtype override.
func (r *Resolver) targets(inv *ir.Invoke) []*ir.Method {
	key := callKey{inv.Kind, inv.Class, inv.Method}
	if out, ok := r.calls[key]; ok {
		return out
	}
	var out []*ir.Method
	if inv.Kind == ir.InvokeStatic || inv.Kind == ir.InvokeSpecial {
		if m := r.prog.ResolveMethod(inv.Class, inv.Method); m != nil {
			out = []*ir.Method{m}
		}
	} else {
		seen := make(map[*ir.Method]bool)
		add := func(m *ir.Method) {
			if m != nil && !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
		add(r.prog.ResolveMethod(inv.Class, inv.Method))
		for _, sub := range r.subtypes(inv.Class) {
			add(sub.Methods[inv.Method])
		}
		sort.Slice(out, func(i, j int) bool {
			return out[i].QualifiedName() < out[j].QualifiedName()
		})
	}
	r.calls[key] = out
	return out
}

// CHA is a context-insensitive call graph computed by class-hierarchy
// analysis — a virtual call resolves to every subtype override of the
// static receiver type — that grows root by root. Its edges are static
// (a call's targets depend only on the call), so growing from a new
// root never changes what earlier roots reach.
type CHA struct {
	r       *Resolver
	reached map[*ir.Method]bool
}

// NewCHA returns an empty graph resolving calls through r.
func (r *Resolver) NewCHA() *CHA {
	return &CHA{r: r, reached: make(map[*ir.Method]bool)}
}

// Grow adds root and every method it reaches to the graph, stopping at
// methods the graph already reaches. It appends the newly reached
// methods to dst, in discovery order, and returns it; a nil or already
// reached root adds nothing.
func (g *CHA) Grow(dst []*ir.Method, root *ir.Method) []*ir.Method {
	if root == nil || g.reached[root] {
		return dst
	}
	g.reached[root] = true
	work := []*ir.Method{root}
	for len(work) > 0 {
		m := work[len(work)-1]
		work = work[:len(work)-1]
		dst = append(dst, m)
		for _, blk := range m.Blocks {
			for _, s := range blk.Stmts {
				inv, ok := s.(*ir.Invoke)
				if !ok {
					continue
				}
				for _, t := range g.r.targets(inv) {
					if !g.reached[t] {
						g.reached[t] = true
						work = append(work, t)
					}
				}
			}
		}
	}
	return dst
}
