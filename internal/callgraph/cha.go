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
// name-sorted snapshot of the program's classes and memoizes each
// static type's subtype list and each call's CHA targets, so a call is
// resolved once however many graphs are built through the resolver.
// The program's class set and method tables must not change while the
// resolver is in use.
type Resolver struct {
	prog    *ir.Program
	classes []*ir.Class
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

// NewResolver snapshots p's classes.
func NewResolver(p *ir.Program) *Resolver {
	return &Resolver{
		prog:    p,
		classes: p.Classes(),
		subs:    make(map[string][]*ir.Class),
		calls:   make(map[callKey][]*ir.Method),
	}
}

// Classes returns the snapshot of the program's classes, sorted by
// name. The slice is shared; callers must not modify it.
func (r *Resolver) Classes() []*ir.Class { return r.classes }

// subtypes returns every snapshot class other than root that is a
// subtype of root, sorted by name.
func (r *Resolver) subtypes(root string) []*ir.Class {
	if out, ok := r.subs[root]; ok {
		return out
	}
	var out []*ir.Class
	for _, c := range r.classes {
		if c.Name != root && r.prog.IsSubtype(c.Name, root) {
			out = append(out, c)
		}
	}
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
// analysis: a virtual call resolves to every subtype override of the
// static receiver type.
type CHA struct {
	// callees maps a call site to its possible targets.
	callees map[ir.Pos][]*ir.Method
	// reachable is the set of methods reachable from the entry points.
	reachable map[*ir.Method]bool
}

// Build computes the CHA call graph reachable from entries.
func (r *Resolver) Build(entries []*ir.Method) *CHA {
	g := &CHA{
		callees:   make(map[ir.Pos][]*ir.Method),
		reachable: make(map[*ir.Method]bool),
	}
	work := append([]*ir.Method(nil), entries...)
	for len(work) > 0 {
		m := work[len(work)-1]
		work = work[:len(work)-1]
		if m == nil || g.reachable[m] {
			continue
		}
		g.reachable[m] = true
		for _, blk := range m.Blocks {
			for _, s := range blk.Stmts {
				inv, ok := s.(*ir.Invoke)
				if !ok {
					continue
				}
				targets := r.targets(inv)
				if len(targets) > 0 {
					g.callees[inv.Pos()] = targets
					work = append(work, targets...)
				}
			}
		}
	}
	return g
}

// Callees returns the resolved targets of the call at p (nil for
// non-calls and framework no-ops). The slice is shared; callers must
// not modify it.
func (g *CHA) Callees(p ir.Pos) []*ir.Method { return g.callees[p] }

// Reachable reports whether m is reachable from the entry points.
func (g *CHA) Reachable(m *ir.Method) bool { return g.reachable[m] }

// ReachableMethods returns all reachable methods sorted by name.
func (g *CHA) ReachableMethods() []*ir.Method {
	out := make([]*ir.Method, 0, len(g.reachable))
	for m := range g.reachable {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].QualifiedName() < out[j].QualifiedName()
	})
	return out
}

// ReachableFrom computes the subset of this graph reachable from the
// given roots (following only edges already in the graph). Harness
// generation uses it to nest a registration under the slot reaching it.
func (g *CHA) ReachableFrom(roots ...*ir.Method) map[*ir.Method]bool {
	seen := make(map[*ir.Method]bool)
	var work []*ir.Method
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			work = append(work, r)
		}
	}
	for len(work) > 0 {
		m := work[len(work)-1]
		work = work[:len(work)-1]
		for _, blk := range m.Blocks {
			for _, s := range blk.Stmts {
				if _, ok := s.(*ir.Invoke); !ok {
					continue
				}
				for _, t := range g.callees[s.Pos()] {
					if !seen[t] {
						seen[t] = true
						work = append(work, t)
					}
				}
			}
		}
	}
	return seen
}
