package shbg

import (
	"sierra/internal/actions"
	"sierra/internal/obs"
	"sierra/internal/pointer"
)

// Rebuild attempts to prove a previously-built graph still describes
// the (in-place patched) program after an incremental re-solve, given
// the set of dirty actions — those whose callee closure reaches a
// changed method.
//
// Removing rows from a transitively-closed relation is not sound (a
// clean row may hold closure contributions that flowed through a dirty
// row), so Rebuild does not patch prev in place. Instead it re-derives
// the *direct* (pre-closure) edges whose derivation could have read
// changed state, and compares them against prev's recorded base
// sequence:
//
//   - a scratch graph replays prev's clean base edges (neither endpoint
//     dirty, and for the domination rules 4/5, neither spawner dirty —
//     their derivations read the spawner's method bodies);
//   - the pre-closure rules 1–5 re-run restricted to dirty pairs, in
//     Build's exact order, so mid-build guards (the rule-3 cycle guard,
//     rule 5's already-ordered skip) see the same per-pair state a cold
//     build would (clean replay cannot place an edge on a dirty pair:
//     the replay predicate and the recompute predicate are the same,
//     per rule);
//   - the recomputed dirty base set is compared, as a set of
//     (a, b, rule) triples, against prev's dirty base records, and the
//     closure-round inputs that bypass the base set — the rule-6 and
//     multi-spawn candidate lists, both functions of the registry's
//     spawn structure — are compared outright.
//
// Equal means every direct edge (and every closure input) of a cold
// build is identical to prev's, hence so is the closed relation and
// every per-rule tally: prev is returned for reuse, byte-for-byte the
// graph a cold build would produce. Any difference means the caller's
// edit gate let real HB change through; Rebuild returns (nil, false)
// and the caller must fall back to a full pipeline — it never guesses
// at a patched closure.
//
// opts must carry the same rule ablation the baseline was built with.
// tr receives shbg.rows_patched (dirty rows re-derived) on success.
func Rebuild(prev *Graph, reg *actions.Registry, res *pointer.Result, opts Options, dirty map[int]bool, tr *obs.Trace) (*Graph, bool) {
	if prev == nil || prev.Interrupted || prev.Reg != reg || prev.n != reg.NumActions() {
		return nil, false
	}
	if prev.base == nil && (prev.ruleCounts[RuleInvocation]+prev.ruleCounts[RuleLifecycle]+
		prev.ruleCounts[RuleGUI]+prev.ruleCounts[RuleIntraProc]+prev.ruleCounts[RuleInterProc]) > 0 {
		return nil, false // no base record to compare against
	}

	// The closure rounds consume the candidate lists, not the program:
	// if the registry's spawn structure drifted, the rounds' output can
	// change without any base-edge difference. Re-derive and compare.
	iaCands, msCands := closureCands(reg)
	if !sameIACands(prev.iaCands, iaCands) || !sameMSCands(prev.msCands, msCands) {
		return nil, false
	}

	scratch := rederive(prev, reg, res, opts, dirty)

	// Compare dirty base sets. Each side records an (a, b) pair at most
	// once (addEdge dedups), so set semantics suffice.
	want := make(map[baseEdge]bool)
	for _, e := range prev.base {
		if edgeDirty(reg, dirty, e) {
			want[e] = true
		}
	}
	got := 0
	for _, e := range scratch.base {
		if !want[e] {
			return nil, false // new or re-attributed dirty edge
		}
		got++
	}
	if got != len(want) {
		return nil, false // a dirty edge disappeared
	}

	if tr != nil {
		tr.Count("shbg.rows_patched", int64(len(dirty)))
	}
	return prev, true
}

// rederive replays prev's clean base edges into a scratch graph, then
// re-runs the pre-closure rules restricted to the dirty pairs.
func rederive(prev *Graph, reg *actions.Registry, res *pointer.Result, opts Options, dirty map[int]bool) *Graph {
	scratch := newGraph(reg)
	scratch.restrict = dirty
	for _, e := range prev.base {
		if !edgeDirty(reg, dirty, e) {
			scratch.addEdge(e.a, e.b, e.rule)
		}
	}
	scratch.baseRules(res, opts)
	return scratch
}

// edgeDirty applies, per rule, the same predicate the restricted
// re-derivation uses — the two must match exactly or the replay and the
// recompute could both place (or both miss) an edge.
func edgeDirty(reg *actions.Registry, dirty map[int]bool, e baseEdge) bool {
	if dirty[e.a] || dirty[e.b] {
		return true
	}
	if e.rule != RuleIntraProc && e.rule != RuleInterProc {
		return false
	}
	// Domination rules: a dirty spawner dirties the edge.
	for _, id := range [2]int{e.a, e.b} {
		if sp, ok := singleSpawn(reg.Get(id)); ok && sp.From >= 0 && dirty[sp.From] {
			return true
		}
	}
	return false
}

func sameIACands(a, b []iaCand) bool {
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

func sameMSCands(a, b []msCand) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].id != b[i].id || len(a[i].spawners) != len(b[i].spawners) {
			return false
		}
		for j := range a[i].spawners {
			if a[i].spawners[j] != b[i].spawners[j] {
				return false
			}
		}
	}
	return true
}

// ApproxBytes estimates the graph's resident memory (bitset rows plus
// the base-edge record) for the serve baseline pool's byte budget.
func (g *Graph) ApproxBytes() int64 {
	var b int64
	for i := 0; i < g.n; i++ {
		b += int64(g.hb[i].Words()+g.rev[i].Words()) * 8
	}
	b += int64(len(g.base)) * 24
	b += int64(g.n) * 56 // row headers + worklist bookkeeping
	return b
}
