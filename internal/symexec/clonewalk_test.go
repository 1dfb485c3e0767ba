package symexec

// The clone walk: the reference the trail walker (walker.go) is pinned
// to, bit for bit, by the TestWalkerParity* tests. Like the original
// implementation it copies the store at every predecessor instead of
// rolling a trail back, and counts per-path visits in a map. It shares
// the walker's transfer, branch and path accounting, and visits
// predecessors in the same order.

import "sierra/internal/ir"

// withCloneWalk runs f with every walk root — including those of the
// refuters CheckAll starts — on the clone walk.
func withCloneWalk(f func()) {
	refRoot = cloneRoot
	defer func() { refRoot = nil }()
	f()
}

// cloneWalk is one walk root's clone-walk state.
type cloneWalk struct {
	w      *walker
	visits map[int]int
}

// cloneRoot is refRoot's clone-walk implementation: it walks from a
// private copy of the root's initial store.
func cloneRoot(w *walker, node int, fz *frozen, init *store) {
	c := &cloneWalk{w: w, visits: map[int]int{}}
	if fz != nil {
		c.walkPreds(node, fz.thaw(), false)
		return
	}
	c.walk(node, init.clone(), false)
}

// walk is walker.walk over private stores.
func (c *cloneWalk) walk(node int, st *store, saw bool) {
	w := c.w
	if w.budgetHit {
		return
	}
	n := &w.g.nodes[node]
	if n.isEntry && n.frame.id == 0 {
		w.endPath()
		if w.sink != nil {
			w.sink(st)
		} else if saw {
			w.found = true
		}
		return
	}
	if w.target.Method != nil && n.pos == w.target {
		saw = true
	}
	if !w.transfer(n, st) {
		w.prunePath()
		return
	}
	c.walkPreds(node, st, saw)
}

// walkPreds is walker.walkPreds with a store copy per predecessor.
func (c *cloneWalk) walkPreds(node int, st *store, saw bool) {
	w := c.w
	if w.budgetHit {
		return
	}
	preds := w.g.predsOf(node)
	if len(preds) == 0 {
		w.prunePath()
		return
	}
	for _, p := range preds {
		if w.budgetHit {
			return
		}
		if c.visits[p.node] >= maxVisitsPerNode {
			w.prunePath()
			continue
		}
		branchSt := st.clone()
		if p.br != branchNone {
			pn := &w.g.nodes[p.node]
			iff, okIf := pn.stmt.(*ir.If)
			if okIf && !w.applyBranch(pn, iff, p.br == branchTrue, branchSt) {
				w.prunePath()
				continue
			}
		}
		c.visits[p.node]++
		c.walk(p.node, branchSt, saw)
		c.visits[p.node]--
	}
}

func newStore() *store {
	return &store{vars: map[string]constraint{}, locs: map[locKey]constraint{}}
}

// clone copies s into a fresh store; the copy never inherits the trail.
func (s *store) clone() *store {
	out := newStore()
	for k, v := range s.vars {
		out.vars[k] = v
	}
	for k, v := range s.locs {
		out.locs[k] = v
	}
	return out
}

// thaw materializes a fresh map-backed store from fz.
func (fz *frozen) thaw() *store {
	out := newStore()
	for i := range fz.vars {
		out.vars[fz.vars[i].name] = fz.vars[i].c
	}
	for i := range fz.locs {
		out.locs[fz.locs[i].lk] = fz.locs[i].c
	}
	return out
}
