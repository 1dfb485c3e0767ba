package cfg

import "sierra/internal/ir"

// ICFG is a lazily-traversed interprocedural CFG over IR statements.
// Nodes are ir.Pos values. Call edges step into callee entries (resolved
// by the Callees function, typically backed by the call graph); calls
// also fall through to their intraprocedural successor, which makes
// return edges unnecessary and keeps reachability an over-approximation —
// the sound direction for HB inference (missing order, never inventing
// it).
type ICFG struct {
	// Callees resolves the possible targets of the Invoke at p. Nil or
	// empty results mean the call has no analyzable body (framework
	// no-op) and only the fall-through edge applies.
	Callees func(p ir.Pos) []*ir.Method
}

// NewICFG builds an ICFG with the given callee resolver.
func NewICFG(callees func(p ir.Pos) []*ir.Method) *ICFG {
	return &ICFG{Callees: callees}
}

// EntryPos returns the position of the first statement of m, descending
// through empty blocks. ok is false for body-less methods.
func EntryPos(m *ir.Method) (ir.Pos, bool) {
	if m == nil || len(m.Blocks) == 0 {
		return ir.Pos{}, false
	}
	ps := firstStmts(m, 0, nil)
	if len(ps) == 0 {
		return ir.Pos{}, false
	}
	return ps[0], true
}

// firstStmts returns the position(s) of the first statement(s) at or
// after block b, descending through empty blocks (cycle-guarded).
func firstStmts(m *ir.Method, b int, seen map[int]bool) []ir.Pos {
	if seen == nil {
		seen = make(map[int]bool)
	}
	if seen[b] {
		return nil
	}
	seen[b] = true
	blk := m.Blocks[b]
	if len(blk.Stmts) > 0 {
		return []ir.Pos{{Method: m, Block: b, Index: 0}}
	}
	var out []ir.Pos
	for _, s := range blk.Succs {
		out = append(out, firstStmts(m, s, seen)...)
	}
	return out
}

// intraSuccs returns the intraprocedural successors of p: the next
// statement in the block, or the first statements of successor blocks.
// Return statements have none.
func intraSuccs(p ir.Pos) []ir.Pos {
	if _, isRet := p.Stmt().(*ir.Return); isRet {
		return nil
	}
	blk := p.Method.Blocks[p.Block]
	if p.Index+1 < len(blk.Stmts) {
		return []ir.Pos{{Method: p.Method, Block: p.Block, Index: p.Index + 1}}
	}
	var out []ir.Pos
	for _, s := range blk.Succs {
		out = append(out, firstStmts(p.Method, s, nil)...)
	}
	return out
}

// Succs returns the ICFG successors of p: intraprocedural successors
// plus, for calls, the entries of all resolved callees.
func (g *ICFG) Succs(p ir.Pos) []ir.Pos {
	out := intraSuccs(p)
	if _, isCall := p.Stmt().(*ir.Invoke); isCall && g.Callees != nil {
		for _, callee := range g.Callees(p) {
			if ep, ok := EntryPos(callee); ok {
				out = append(out, ep)
			}
		}
	}
	return out
}

// Reaches reports whether target is reachable from entry (inclusive of
// entry itself).
func (g *ICFG) Reaches(entry *ir.Method, target ir.Pos) bool {
	start, ok := EntryPos(entry)
	if !ok {
		return false
	}
	if start == target {
		return true
	}
	seen := map[ir.Pos]bool{start: true}
	stack := []ir.Pos{start}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Succs(u) {
			if v == target {
				return true
			}
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return false
}

// ReachesWithoutStrict reports whether target is reachable from entry
// when the statement at removed is deleted. HB rule 5: call site e1
// de-facto dominates e2 within an action iff e2 is unreachable once e1
// is removed. The search is return-aware: a call falls through to its
// continuation only if some callee can run to completion without
// executing the removed statement. Succs' unconditional fall-through
// would let execution "skip past" a callee that must execute the
// removed node to return, defeating the removal test entirely.
func (g *ICFG) ReachesWithoutStrict(entry *ir.Method, removed, target ir.Pos) bool {
	t := &strictTraversal{
		g:        g,
		removed:  removed,
		complete: make(map[*ir.Method]int),
	}
	start, ok := EntryPos(entry)
	if !ok || start == removed {
		return false
	}
	return t.search(start, target, map[ir.Pos]bool{})
}

type strictTraversal struct {
	g       *ICFG
	removed ir.Pos
	// complete memoizes canComplete per method: 0 unknown, 1 yes, 2 no,
	// 3 in-progress (treated optimistically as yes — over-approximating
	// reachability is the sound direction for HB).
	complete map[*ir.Method]int
}

// search is a DFS over positions where stepping past a call requires a
// completable callee.
func (t *strictTraversal) search(from, target ir.Pos, seen map[ir.Pos]bool) bool {
	if from == target {
		return true
	}
	if from == t.removed || seen[from] {
		return false
	}
	seen[from] = true
	if _, isCall := from.Stmt().(*ir.Invoke); isCall {
		callees := t.callees(from)
		for _, callee := range callees {
			if ep, ok := EntryPos(callee); ok {
				if t.search(ep, target, seen) {
					return true
				}
			}
		}
		if len(callees) == 0 || t.anyCompletes(callees) {
			for _, next := range intraSuccs(from) {
				if t.search(next, target, seen) {
					return true
				}
			}
		}
		return false
	}
	for _, next := range intraSuccs(from) {
		if t.search(next, target, seen) {
			return true
		}
	}
	return false
}

func (t *strictTraversal) callees(p ir.Pos) []*ir.Method {
	if t.g.Callees == nil {
		return nil
	}
	var out []*ir.Method
	for _, m := range t.g.Callees(p) {
		if m != nil && len(m.Blocks) > 0 {
			out = append(out, m)
		}
	}
	return out
}

func (t *strictTraversal) anyCompletes(ms []*ir.Method) bool {
	for _, m := range ms {
		if t.canComplete(m) {
			return true
		}
	}
	return false
}

// canComplete reports whether m can reach a Return without executing the
// removed statement.
func (t *strictTraversal) canComplete(m *ir.Method) bool {
	switch t.complete[m] {
	case 1, 3: // yes, or in-progress (optimistic)
		return true
	case 2:
		return false
	}
	t.complete[m] = 3
	result := t.completeSearch(m)
	if result {
		t.complete[m] = 1
	} else {
		t.complete[m] = 2
	}
	return result
}

func (t *strictTraversal) completeSearch(m *ir.Method) bool {
	start, ok := EntryPos(m)
	if !ok {
		return true // body-less: trivially completes
	}
	seen := map[ir.Pos]bool{}
	var dfs func(p ir.Pos) bool
	dfs = func(p ir.Pos) bool {
		if p == t.removed || seen[p] {
			return false
		}
		seen[p] = true
		switch p.Stmt().(type) {
		case *ir.Return:
			return true
		case *ir.Invoke:
			callees := t.callees(p)
			if len(callees) > 0 && !t.anyCompletes(callees) {
				return false
			}
		}
		for _, next := range intraSuccs(p) {
			if dfs(next) {
				return true
			}
		}
		return false
	}
	return dfs(start)
}
