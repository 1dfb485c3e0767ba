package ir

import "slices"

// IsGuardField reports whether field is a guard field of the program:
// some method loads it (Load or StaticLoad) into a variable that an If
// later in the method's block order tests. Races on such fields are
// real but usually benign (§6.5). Finalize keeps the set for the
// classes it walks, so on a finalized program this is one map lookup;
// methods of classes queued since (registered, given a method or a new
// body) are judged by their current bodies.
func (p *Program) IsGuardField(field string) bool {
	n := p.guards[field]
	var gs guardScan
	for _, c := range p.pending {
		for _, m := range c.Methods {
			if slices.Contains(m.guards, field) {
				n--
			}
			gs.reset()
			for _, b := range m.Blocks {
				for _, s := range b.Stmts {
					gs.stmt(s)
				}
			}
			if slices.Contains(gs.fields(), field) {
				n++
			}
		}
	}
	return n > 0
}

// setGuards replaces m's contribution to the program's guard set.
func (p *Program) setGuards(m *Method, fields []string) {
	if len(m.guards) == 0 && len(fields) == 0 {
		return
	}
	for _, f := range m.guards {
		if p.guards[f]--; p.guards[f] == 0 {
			delete(p.guards, f)
		}
	}
	if p.guards == nil {
		p.guards = make(map[string]int)
	}
	m.guards = fields
	for _, f := range fields {
		p.guards[f]++
	}
}

// guardScan collects one method's guard fields from its statements in
// block order. It keeps the loads and, per If operand, how many loads
// preceded the last If testing it, so a method without an If costs one
// append per load and no map work.
type guardScan struct {
	loads  []guardLoad
	tested map[string]int
}

type guardLoad struct{ dst, field string }

func (g *guardScan) reset() {
	g.loads = g.loads[:0]
	if len(g.tested) > 0 {
		clear(g.tested)
	}
}

func (g *guardScan) stmt(s Stmt) {
	switch st := s.(type) {
	case *Load:
		g.loads = append(g.loads, guardLoad{st.Dst, st.Field})
	case *StaticLoad:
		g.loads = append(g.loads, guardLoad{st.Dst, st.Field})
	case *If:
		if g.tested == nil {
			g.tested = make(map[string]int)
		}
		g.tested[st.A] = len(g.loads)
	}
}

// fields returns the distinct guard fields, in first-load order: load i
// guards when an If testing its destination came after it.
func (g *guardScan) fields() []string {
	if len(g.tested) == 0 {
		return nil
	}
	var out []string
	for i, l := range g.loads {
		if i < g.tested[l.dst] && !slices.Contains(out, l.field) {
			out = append(out, l.field)
		}
	}
	return out
}
