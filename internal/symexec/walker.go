package symexec

import (
	"sierra/internal/ir"
)

// walker enumerates backward paths over an inlined action graph,
// applying reverse transfer functions to a constraint store and pruning
// contradictions. It mutates one shared store and rolls a mutation
// trail back when the DFS retreats, so the enumeration spine allocates
// nothing per predecessor. The clone-per-predecessor walk it replaced
// is the package tests' reference (clonewalk_test.go): it visits
// predecessors in the same order and applies the same branch/transfer
// mutations, and the TestWalkerParity* tests pin every verdict, path
// count and pruned tally to it.
type walker struct {
	g *igraph
	// ref/aid route Load/Store points-to resolution to the refuter's
	// per-(action, method, var) memo — a method call instead of a
	// closure allocated per walker.
	ref *Refuter
	aid int
	// budget is the remaining path allowance; each completed or pruned
	// path consumes one.
	budget    int
	paths     int
	budgetHit bool
	// pruned counts paths that died on a contradiction or bound
	// (branch/transfer unsat, loop bound, dangling node) rather than
	// reaching the entry.
	pruned int
	// target, when set, is the access the path must execute (E-walk).
	target ir.Pos
	// visits tracks per-path node occurrences (loop unrolling bound),
	// dense-indexed by igraph node id. Increments and decrements are
	// balanced on every walk, so the slice returns to all-zero and is
	// reused across walks without resetting.
	visits []uint8
	// sink receives each consistent entry store of an A-walk (nil on
	// E-walks); a walker field rather than a parameter threaded through
	// the DFS, so the recursion spine carries no closure.
	sink func(*store)
	// found records that an E-walk path reached the entry having
	// executed the target access. It never stops a walk mid-path (only
	// the exits loop checks it), matching the original enumeration.
	found bool
	// tr is the shared mutation trail; its backing array is reused
	// across walks.
	tr *trail
	// scratch is the reusable walk store: each walk root resets it to
	// the initial constraints instead of cloning them, so a root
	// allocates nothing in steady state.
	scratch *store
	// cancelled, when non-nil, is polled every ctxPollStride paths; a
	// true return bails the walk through the budget-exhaustion path.
	cancelled func() bool
}

// refRoot, when non-nil, runs every walk root in place of the trail
// walk, from the root's own initial store: fz for an A-walk (which
// starts at node's predecessors), init for an E-walk (which starts at
// node). Only the package's tests set it, to the clone-walk reference;
// it is read once per root, never per DFS node.
var refRoot func(w *walker, node int, fz *frozen, init *store)

// maxVisitsPerNode allows one loop unrolling per path.
const maxVisitsPerNode = 2

// ctxPollStride is how many completed paths pass between cancellation
// polls (ctx.Err takes a lock; per-path polling would show up in the
// refutation hot loop).
const ctxPollStride = 64

// collectEntryFrom runs the A-walk: backward from the access node (its
// own transfer skipped — the access is the query's sink) to the root
// entry under an initial constraint store (e.g. the on-demand constant
// propagation's message-code seed), reporting each consistent store via
// sink. The store handed to sink is the shared mutable store — sink
// must freeze/clone what it keeps.
func (w *walker) collectEntryFrom(accessNode int, init *frozen, sink func(*store)) {
	w.sink = sink
	if refRoot != nil {
		refRoot(w, accessNode, init, nil)
		return
	}
	st := w.beginWalk()
	st.resetToFrozen(init)
	w.walkPreds(accessNode, st, false)
}

// findWitness runs the E-walk: backward from every root exit to the root
// entry under init; a witness path must execute the target access.
func (w *walker) findWitness(init *store) bool {
	w.found = false
	for _, exit := range w.g.exits {
		if w.found || w.budgetHit {
			break
		}
		if refRoot != nil {
			refRoot(w, exit, nil, init)
			continue
		}
		// Process the exit node itself (a Return; no-op transfer) then
		// walk its predecessors.
		st := w.beginWalk()
		st.resetTo(init)
		w.walk(exit, st, false)
	}
	return w.found
}

// beginWalk prepares one walk root: the reusable scratch store with an
// empty trail, for the caller to reset to the initial constraints
// (resets bypass the trail).
func (w *walker) beginWalk() *store {
	w.tr.ops = w.tr.ops[:0]
	w.scratch.tr = w.tr
	return w.scratch
}

// walk processes node's reverse transfer then recurses into its
// predecessors; reaching the root entry reports to sink (A-walk) or
// sets found (E-walk).
func (w *walker) walk(node int, st *store, saw bool) {
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
	ok := w.transfer(n, st)
	if !ok {
		// Partial mutations of the failed transfer are on the trail;
		// the caller's per-predecessor rollback undoes them.
		w.prunePath()
		return
	}
	w.walkPreds(node, st, saw)
}

// walkPreds recurses into the predecessors of node (without processing
// node itself).
func (w *walker) walkPreds(node int, st *store, saw bool) {
	if w.budgetHit {
		return
	}
	preds := w.g.predsOf(node)
	if len(preds) == 0 {
		// Dangling (unreachable) node: path dies.
		w.prunePath()
		return
	}
	for _, p := range preds {
		if w.budgetHit {
			return
		}
		if w.visits[p.node] >= maxVisitsPerNode {
			w.prunePath()
			continue
		}
		mark := w.tr.mark()
		if p.br != branchNone {
			pn := &w.g.nodes[p.node]
			iff, okIf := pn.stmt.(*ir.If)
			if okIf && !w.applyBranch(pn, iff, p.br == branchTrue, st) {
				w.prunePath()
				continue
			}
		}
		w.visits[p.node]++
		w.walk(p.node, st, saw)
		w.visits[p.node]--
		st.rollback(mark)
	}
}

func (w *walker) endPath() {
	w.paths++
	if w.paths >= w.budget {
		w.budgetHit = true
	}
	if w.cancelled != nil && w.paths%ctxPollStride == 0 && w.cancelled() {
		w.budgetHit = true
	}
}

// prunePath ends a path that died before reaching the entry.
func (w *walker) prunePath() {
	w.pruned++
	w.endPath()
}

// applyBranch strengthens the store with an If condition taken in the
// given polarity; false means the path is infeasible. A false return
// leaves the store and its trail untouched (constrainVarEq and
// constrainVarNe write only when satisfiable), so the caller has
// nothing to roll back.
func (w *walker) applyBranch(n *inode, iff *ir.If, taken bool, st *store) bool {
	op := iff.Op
	if !taken {
		op = op.Negate()
	}
	if iff.B.IsVar {
		return true // relational var-var constraints are not tracked
	}
	var v value
	switch iff.B.Kind {
	case ir.ConstInt:
		v = intVal(iff.B.Int)
	case ir.ConstBool:
		v = boolVal(iff.B.Bool)
	case ir.ConstNull:
		v = nullVal()
	default:
		return true
	}
	switch op {
	case ir.CmpEQ:
		return st.constrainVarEq(n.qcond, v)
	case ir.CmpNE:
		if v.kind == vNull {
			return st.constrainVarEq(n.qcond, nonNullVal())
		}
		return st.constrainVarNe(n.qcond, v)
	default:
		return true // <, <=, >, >= — untracked, assume satisfiable
	}
}

// transfer applies the reverse transfer function of one node. Returns
// false when the store becomes unsatisfiable. All mutations go through
// the store's trail-aware helpers, so the clone-walk reference shares
// this transfer implementation verbatim.
func (w *walker) transfer(n *inode, st *store) bool {
	if n.isEntry {
		return true // non-root frame entry: no effect
	}
	if n.isSynth {
		return w.moveVar(st, n.synthDst, n.synthSrc)
	}
	f := n.frame
	switch s := n.stmt.(type) {
	case *ir.Const:
		c, ok := st.vars[n.qdst]
		if !ok {
			return true
		}
		st.delVar(n.qdst)
		var v value
		switch s.Kind {
		case ir.ConstInt:
			v = intVal(s.Int)
		case ir.ConstBool:
			v = boolVal(s.Bool)
		case ir.ConstNull:
			v = nullVal()
		default:
			v = nonNullVal()
		}
		return c.satisfiedBy(v)
	case *ir.Move:
		return w.moveVar(st, n.qdst, n.qsrc)
	case *ir.New:
		c, ok := st.vars[n.qdst]
		if !ok {
			return true
		}
		st.delVar(n.qdst)
		return c.satisfiedBy(nonNullVal())
	case *ir.Load:
		c, ok := st.vars[n.qdst]
		if !ok {
			return true
		}
		st.delVar(n.qdst)
		if o, single := w.ref.resolvePts(w.aid, f, s.Obj).Single(); single {
			return mergeLoc(st, locKey{obj: o, field: s.Field}, c)
		}
		return true // ambiguous base: drop the constraint (sound)
	case *ir.Store:
		o, single := w.ref.resolvePts(w.aid, f, s.Obj).Single()
		if !single {
			return true // weak update: the store may not hit our location
		}
		lk := locKey{obj: o, field: s.Field}
		c, ok := st.locs[lk]
		if !ok {
			return true
		}
		st.delLoc(lk)
		// Strong update: the stored value must satisfy the
		// requirement — move the constraint onto the source var.
		return mergeVar(st, n.qsrc, c)
	case *ir.StaticLoad:
		c, ok := st.vars[n.qdst]
		if !ok {
			return true
		}
		st.delVar(n.qdst)
		return mergeLoc(st, locKey{static: true, class: s.Class, field: s.Field}, c)
	case *ir.StaticStore:
		lk := locKey{static: true, class: s.Class, field: s.Field}
		c, ok := st.locs[lk]
		if !ok {
			return true
		}
		st.delLoc(lk)
		return mergeVar(st, n.qsrc, c)
	case *ir.Invoke:
		if s.Dst != "" {
			// Un-inlined call: result unknown, drop the constraint.
			st.delVar(n.qdst)
		}
		return true
	case *ir.BinOp:
		st.delVar(n.qdst)
		return true
	default:
		return true
	}
}

// moveVar transfers the constraint on dst (if any) onto src.
func (w *walker) moveVar(st *store, dst, src string) bool {
	c, ok := st.vars[dst]
	if !ok {
		return true
	}
	st.delVar(dst)
	return mergeVar(st, src, c)
}

// mergeVar conjoins a constraint onto a variable.
func mergeVar(st *store, name string, c constraint) bool {
	if c.hasEq && !st.constrainVarEq(name, c.eqv) {
		return false
	}
	for _, n := range c.ne {
		if !st.constrainVarNe(name, n) {
			return false
		}
	}
	return true
}

// mergeLoc conjoins a constraint onto a heap location.
func mergeLoc(st *store, lk locKey, c constraint) bool {
	have := st.locs[lk]
	if c.hasEq {
		merged, ok := have.withEq(c.eqv)
		if !ok {
			return false
		}
		have = merged
	}
	for _, n := range c.ne {
		merged, ok := have.withNe(n)
		if !ok {
			return false
		}
		have = merged
	}
	st.setLoc(lk, have)
	return true
}
