// Package shbg builds the Static Happens-Before Graph (§4 of the paper):
// nodes are actions, edges are statically-proven "A completes before B
// starts" relations derived from seven rules — action invocation,
// lifecycle dominance, GUI-model dominance, intra-procedural domination,
// inter-procedural intra-action domination, inter-action transitivity,
// and transitive closure.
package shbg

import (
	"context"
	mathbits "math/bits"

	"sierra/internal/actions"
	"sierra/internal/bitset"
	"sierra/internal/cfg"
	"sierra/internal/frontend"
	"sierra/internal/ir"
	"sierra/internal/obs"
	"sierra/internal/pointer"
)

// Rule identifies an HB rule for bookkeeping and ablation.
type Rule int

const (
	// RuleInvocation: spawner ≺ spawnee (threads, posts, messages,
	// system registrations, AsyncTask-internal order).
	RuleInvocation Rule = iota
	// RuleLifecycle: harness-CFG dominance between lifecycle sites
	// (Fig 5, including the duplicated onStart/onResume instances).
	RuleLifecycle
	// RuleGUI: harness-CFG dominance involving GUI sites (Fig 6), plus
	// the GUI-before-stop ordering (a stopped activity receives no UI
	// events — the reason SIERRA filters EventRacer's onClick-vs-onStop
	// false positives, §6.4).
	RuleGUI
	// RuleIntraProc: two posts in one method, the first dominating the
	// second, same target looper (rule 4).
	RuleIntraProc
	// RuleInterProc: posts in different methods of one action ordered by
	// de-facto ICFG dominance (rule 5).
	RuleInterProc
	// RuleInterAction: A1≺A2 ∧ A1 posts A3 ∧ A2 posts A4 ⇒ A3≺A4 under
	// looper atomicity (rule 6, Fig 7).
	RuleInterAction
	// RuleTransitive marks edges added by transitive closure (rule 7).
	RuleTransitive

	numRules
)

func (r Rule) String() string {
	return [...]string{
		"invocation", "lifecycle", "gui", "intra-proc",
		"inter-proc", "inter-action", "transitive",
	}[r]
}

// Options tunes graph construction (rule ablation for benchmarks).
type Options struct {
	// Disable turns individual rules off.
	Disable map[Rule]bool
	// DisableGUITeardownOrder drops only the §6.4 GUI-before-stop
	// post-dominance edges while keeping the rest of the GUI rule. Those
	// edges deliberately conflate action instances (a click after a
	// restart follows an earlier onStop), trading per-instance soundness
	// for the false-positive filtering the paper describes; disabling
	// them yields the instance-sound core HB relation.
	DisableGUITeardownOrder bool
	// Obs, when non-nil, receives the construction effort counters
	// (shbg.* — see README.md "Observability"). Nil costs nothing.
	Obs *obs.Trace
	// Ctx, when non-nil, is polled between closure rounds; once done the
	// rule-6/7 iteration stops early and the graph is marked Interrupted
	// (every recorded edge is real, but the closure may be incomplete).
	Ctx context.Context
	// Jobs is kept for existing callers.
	//
	// Deprecated: ignored; the closure is sequential.
	Jobs int
}

// Graph is the SHBG.
type Graph struct {
	Reg *actions.Registry
	n   int
	// Interrupted marks that closure stopped early on a cancelled
	// context; the HB relation is then an under-approximation.
	Interrupted bool
	// hb[a] is a's successor row: bit b set means a ≺ b after
	// transitive closure. One bitset row per action makes closure
	// propagation a word-parallel OR (64 pairs per machine op).
	hb []bitset.Set
	// rev[b] is b's predecessor row (bit a set iff a ≺ b), kept in
	// lockstep with hb so the closure worklist can reach exactly the
	// rows a changed row invalidates.
	rev []bitset.Set
	// work/inWork form the closure worklist: actions whose successor
	// row changed since their predecessors last absorbed it.
	work   []int
	inWork []bool
	// ruleCounts tallies direct (pre-closure) edges per rule.
	ruleCounts [numRules]int
	// reachQueries counts rule 5's ICFG reachability queries.
	reachQueries int
	// iaCands/msCands are the rule-6 and multi-spawn candidates,
	// precomputed once per Build: spawns are static, so re-deriving
	// them every closure round (the old per-round singleSpawn +
	// externalSpawners churn) only burned allocations.
	iaCands []iaCand
	msCands []msCand
	// base records the pre-closure addEdge sequence (rules 1–5, in
	// order) while recording is set — Build's direct-edge witness, which
	// Rebuild (rebuild.go) re-derives for dirty pairs and compares.
	base      []baseEdge
	recording bool
	// restrict, when non-nil, limits the pair rules to pairs the dirty
	// predicate matches (see pairDirty/spawnPairDirty); Rebuild's
	// restricted re-derivation sets it, Build never does.
	restrict map[int]bool
}

// baseEdge is one successfully-added pre-closure edge with its rule
// attribution.
type baseEdge struct {
	a, b int
	rule Rule
}

// pairDirty is the restricted-run predicate for rules whose derivation
// reads only the two endpoints (invocation, lifecycle, GUI).
func (g *Graph) pairDirty(a, b int) bool {
	if g.restrict == nil {
		return true
	}
	return g.restrict[a] || g.restrict[b]
}

// spawnPairDirty is the predicate for the domination rules 4/5, whose
// derivation additionally reads the spawning actions' method bodies
// (dominators of the site's method, ICFG reachability from the
// spawner's roots) — so a dirty spawner dirties the pair even when both
// endpoints are clean.
func (g *Graph) spawnPairDirty(a, b, fromA, fromB int) bool {
	if g.restrict == nil {
		return true
	}
	return g.restrict[a] || g.restrict[b] ||
		(fromA >= 0 && g.restrict[fromA]) || (fromB >= 0 && g.restrict[fromB])
}

// iaCand is a rule-6 candidate: a single-spawn action actually posted,
// undelayed, to a real looper queue. Pairs of candidates on the same
// looper with distinct HB-ordered spawners get ordered by Fig 7.
type iaCand struct {
	id     int
	from   int
	looper actions.Looper
}

// msCand is a multi-spawner invocation-rule candidate with its distinct
// external spawner ids.
type msCand struct {
	id       int
	spawners []int
}

// Build constructs the SHBG from the action registry and the (action-
// sensitive) analysis result.
func Build(reg *actions.Registry, res *pointer.Result, opts Options) *Graph {
	g := &Graph{Reg: reg, n: reg.NumActions()}
	g.hb = make([]bitset.Set, g.n)
	g.rev = make([]bitset.Set, g.n)
	g.inWork = make([]bool, g.n)
	disabled := func(r Rule) bool { return opts.Disable != nil && opts.Disable[r] }

	// Record the pre-closure direct-edge sequence: Rebuild's dirty-row
	// comparison needs the exact per-rule base set, and the rounds loop
	// below must not pollute it (its edges are derived, not direct).
	g.recording = true
	if !disabled(RuleInvocation) {
		g.ruleInvocation()
	}
	if !disabled(RuleLifecycle) || !disabled(RuleGUI) {
		g.ruleHarnessDominance(disabled(RuleLifecycle), disabled(RuleGUI), opts.DisableGUITeardownOrder)
	}
	if !disabled(RuleIntraProc) {
		g.ruleIntraProc()
	}
	if !disabled(RuleInterProc) {
		g.ruleInterProc(res)
	}
	g.recording = false
	// Rules 6+7 iterate together: inter-action transitivity can reveal
	// edges that further closure propagates, and vice versa (§4.3 ¶7).
	// Their candidate sets depend only on the (static) spawn structure,
	// so derive them once, in action order.
	for _, a := range reg.Actions() {
		if sp, ok := singleSpawn(a); ok && sp.From >= 0 &&
			sp.Posted && !sp.Delayed && a.Looper != actions.LooperNone {
			g.iaCands = append(g.iaCands, iaCand{id: a.ID, from: sp.From, looper: a.Looper})
		}
		if spawners := externalSpawners(a); len(spawners) >= 2 {
			g.msCands = append(g.msCands, msCand{id: a.ID, spawners: spawners})
		}
	}
	rounds := 0
	for {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			g.Interrupted = true
			break
		}
		rounds++
		changed := g.close()
		if !disabled(RuleInvocation) && g.ruleMultiSpawnInvocation() {
			changed = true
		}
		if !disabled(RuleInterAction) && g.ruleInterAction() {
			changed = true
		}
		if !changed {
			break
		}
	}
	if tr := opts.Obs; tr != nil {
		for r := Rule(0); r < numRules; r++ {
			tr.Count("shbg.edges."+r.String(), int64(g.ruleCounts[r]))
		}
		tr.Count("shbg.edges_closed", int64(g.NumEdges()))
		tr.Count("shbg.closure_rounds", int64(rounds))
		tr.Observe("shbg.closure_iterations", float64(rounds))
		tr.Count("shbg.reach_queries", int64(g.reachQueries))
		if g.Interrupted {
			tr.Count("shbg.interrupted", 1)
		}
	}
	return g
}

// addEdge inserts a direct edge (no self-edges, out-of-range ids
// rejected), tagging the rule. Both endpoints join the closure
// worklist: a's row grew, and b's successors now belong in a's row.
func (g *Graph) addEdge(a, b int, r Rule) bool {
	if a == b || a < 0 || b < 0 || a >= g.n || b >= g.n || g.hb[a].Has(b) {
		return false
	}
	g.hb[a].Add(b)
	g.rev[b].Add(a)
	g.ruleCounts[r]++
	if g.recording {
		g.base = append(g.base, baseEdge{a: a, b: b, rule: r})
	}
	g.push(a)
	g.push(b)
	return true
}

// HB reports whether a ≺ b (false for out-of-range action ids).
func (g *Graph) HB(a, b int) bool {
	if a < 0 || b < 0 || a >= g.n || b >= g.n {
		return false
	}
	return g.hb[a].Has(b)
}

// Ordered reports whether the pair is ordered either way (false for
// out-of-range action ids).
func (g *Graph) Ordered(a, b int) bool {
	if a < 0 || b < 0 || a >= g.n || b >= g.n {
		return false
	}
	return g.hb[a].Has(b) || g.hb[b].Has(a)
}

// NumActions returns the node count.
func (g *Graph) NumActions() int { return g.n }

// NumEdges counts ordered pairs after closure.
func (g *Graph) NumEdges() int {
	total := 0
	for a := 0; a < g.n; a++ {
		total += g.hb[a].Count()
	}
	return total
}

// OrderedFraction is NumEdges over the theoretical maximum N(N-1)/2 —
// the "Ordered (%)" column of Table 3.
func (g *Graph) OrderedFraction() float64 {
	if g.n < 2 {
		return 0
	}
	max := g.n * (g.n - 1) / 2
	return float64(g.NumEdges()) / float64(max)
}

// RuleCount reports how many direct edges a rule contributed.
func (g *Graph) RuleCount(r Rule) int { return g.ruleCounts[r] }

// ruleInvocation adds spawner ≺ spawnee edges plus AsyncTask-internal
// order (rule 1 and Table 1's HB-introduction column).
//
// Soundness with multiple spawners: an action node conflates every
// occurrence it stands for, so "X ≺ B" must hold no matter which site
// posted B. A direct edge is only added when B has a single distinct
// external spawner; multi-spawner actions are ordered by the
// intersection rule in ruleMultiSpawnInvocation, re-run under closure.
// Self-spawns (a runnable re-posting itself) are excluded from the
// spawner set: by induction, anything preceding the first post precedes
// every re-post.
func (g *Graph) ruleInvocation() {
	for _, a := range g.Reg.Actions() {
		spawners := externalSpawners(a)
		if len(spawners) == 1 && g.pairDirty(spawners[0], a.ID) {
			g.addEdge(spawners[0], a.ID, RuleInvocation)
		}
	}
	for _, e := range g.Reg.TaskEdges() {
		if g.pairDirty(e[0], e[1]) {
			g.addEdge(e[0], e[1], RuleInvocation)
		}
	}
}

// externalSpawners returns the distinct non-self spawner ids of a.
func externalSpawners(a *actions.Action) []int {
	seen := map[int]bool{}
	var out []int
	for _, sp := range a.Spawns {
		if sp.From < 0 || sp.From == a.ID || seen[sp.From] {
			continue
		}
		seen[sp.From] = true
		out = append(out, sp.From)
	}
	return out
}

// ruleMultiSpawnInvocation orders X ≺ B for multi-spawner actions B when
// X is (or precedes) every distinct external spawner of B. Monotone in
// the growing HB relation, so it iterates with closure over the
// precomputed msCands (same action/x order as the naive scan, so the
// addEdge sequence — and with it the per-rule tallies — is unchanged).
func (g *Graph) ruleMultiSpawnInvocation() bool {
	changed := false
	for _, ms := range g.msCands {
		for x := 0; x < g.n; x++ {
			if x == ms.id || g.hb[x].Has(ms.id) {
				continue
			}
			all := true
			for _, f := range ms.spawners {
				if x != f && !g.hb[x].Has(f) {
					all = false
					break
				}
			}
			if all && g.addEdge(x, ms.id, RuleInvocation) {
				changed = true
			}
		}
	}
	return changed
}

// ruleHarnessDominance adds dominance-derived edges among harness-sited
// actions (rules 2 and 3): site dominance in the harness CFG orders
// lifecycle and GUI actions; post-dominance of pause/stop/destroy over
// GUI sites orders UI events before the activity becomes invisible.
func (g *Graph) ruleHarnessDominance(skipLifecycle, skipGUI, skipTeardown bool) {
	for hi, h := range g.Reg.Harnesses {
		if g.restrict != nil {
			// Restricted runs skip whole harnesses with no dirty sited
			// action: every pair the loops below would consider fails the
			// endpoint predicate, so the dominator trees are dead weight.
			any := false
			for _, a := range g.Reg.Actions() {
				if a.Scope == hi && a.HarnessSite.Valid() && g.restrict[a.ID] {
					any = true
					break
				}
			}
			if !any {
				continue
			}
		}
		dom := cfg.MethodDominators(h.Method)
		graph := cfg.MethodGraph{M: h.Method}

		// Post-dominators need the single return block as exit.
		exits := []int{}
		for bi, blk := range h.Method.Blocks {
			if len(blk.Stmts) > 0 {
				if _, isRet := blk.Stmts[len(blk.Stmts)-1].(*ir.Return); isRet {
					exits = append(exits, bi)
				}
			}
		}
		gx, exit := cfg.WithVirtualExit(graph, exits)
		pdom := cfg.PostDominators(gx, exit)

		var sited []*actions.Action
		for _, a := range g.Reg.Actions() {
			if a.Scope == hi && a.HarnessSite.Valid() {
				sited = append(sited, a)
			}
		}
		for _, a := range sited {
			for _, b := range sited {
				if a == b {
					continue
				}
				bothLC := a.Kind == actions.KindLifecycle && b.Kind == actions.KindLifecycle
				rule := RuleGUI
				if bothLC {
					rule = RuleLifecycle
				}
				if (bothLC && skipLifecycle) || (!bothLC && skipGUI) {
					continue
				}
				if !g.pairDirty(a.ID, b.ID) {
					continue
				}
				if cfg.StmtDominates(dom, a.HarnessSite, b.HarnessSite) {
					g.addEdge(a.ID, b.ID, rule)
				}
			}
		}
		if skipGUI || skipTeardown {
			continue
		}
		// GUI ≺ pause/stop/destroy via post-dominance: a stopped
		// activity receives no UI events, so every UI action instance
		// precedes the teardown callbacks (cycle-guarded: only when the
		// reverse edge is absent).
		for _, a := range sited {
			if a.Kind != actions.KindGUI {
				continue
			}
			for _, b := range sited {
				if b.Kind != actions.KindLifecycle {
					continue
				}
				// Only stopped/destroyed activities are guaranteed to
				// receive no UI events (§6.4); paused ones may still be
				// visible, so onPause stays unordered with GUI actions.
				switch b.Callback {
				case frontend.OnStop, frontend.OnDestroy:
				default:
					continue
				}
				if !g.pairDirty(a.ID, b.ID) {
					continue
				}
				if g.hb[b.ID].Has(a.ID) {
					continue
				}
				if pdom.Dominates(b.HarnessSite.Block, a.HarnessSite.Block) {
					g.addEdge(a.ID, b.ID, RuleGUI)
				}
			}
		}
	}
}

// singleSpawn returns an action's sole spawn when it has exactly one —
// the sound precondition for the domination rules 4/5 (an action posted
// from several sites has no unique posting point to order).
func singleSpawn(a *actions.Action) (actions.Spawn, bool) {
	if len(a.Spawns) != 1 {
		return actions.Spawn{}, false
	}
	return a.Spawns[0], true
}

// posteable reports whether rules 4/5/6's looper-FIFO reasoning applies
// to a pair of spawned actions: both actually posted to the same real
// looper queue (not synthetic harness invocations, thread starts, or
// system registrations) and neither delayed.
func posteable(a, b *actions.Action, sa, sb actions.Spawn) bool {
	return sa.Posted && sb.Posted &&
		a.Looper == b.Looper && a.Looper != actions.LooperNone &&
		!sa.Delayed && !sb.Delayed
}

// ruleIntraProc orders actions posted at two sites of the same method
// when the first site dominates the second (rule 4).
func (g *Graph) ruleIntraProc() {
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

// ruleInterProc orders actions posted from different methods of the same
// spawning action via de-facto ICFG dominance: removing e1 must make e2
// unreachable from the spawner's roots (rule 5).
func (g *Graph) ruleInterProc(res *pointer.Result) {
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
				// e2 must be reachable at all for the claim to mean
				// anything.
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

// ruleInterAction applies Fig 7: A1 ≺ A2, A1 posts A3, A2 posts A4,
// same-looper non-delayed posts ⇒ A3 ≺ A4. It scans the precomputed
// candidate pairs — the same pairs the naive n² scan reached, in the
// same order, so the addEdge sequence is unchanged — which drops the
// per-round cost from n² singleSpawn/posteable probes to c² bit tests
// over the usually-small posted-candidate set.
func (g *Graph) ruleInterAction() bool {
	changed := false
	for _, c3 := range g.iaCands {
		for _, c4 := range g.iaCands {
			if c3.id == c4.id || c4.from == c3.from || c3.looper != c4.looper {
				continue
			}
			if g.hb[c3.id].Has(c4.id) || !g.hb[c3.from].Has(c4.from) {
				continue
			}
			if g.addEdge(c3.id, c4.id, RuleInterAction) {
				changed = true
			}
		}
	}
	return changed
}

// close computes the transitive closure (rule 7), reporting change.
//
// Rather than a dense Floyd–Warshall sweep (n³ boolean tests per call,
// most re-confirming settled rows), it drains a worklist of actions
// whose successor row changed: popping k ORs hb[k] into every
// predecessor's row word-parallel, re-queueing rows that grew. The
// fixpoint is the same full closure the dense sweep reached — at an
// empty worklist every edge i≺k implies hb[i] ⊇ hb[k]\{i} — so the
// per-rule edge counts, round counts, and final relation are
// unchanged; only the work drops from n³ to (edges added)·n/64.
func (g *Graph) close() bool {
	changed := false
	for len(g.work) > 0 {
		k := g.work[len(g.work)-1]
		g.work = g.work[:len(g.work)-1]
		g.inWork[k] = false
		krow := g.hb[k]
		if len(krow) == 0 {
			continue
		}
		// Propagate k's successors to each predecessor of k. rev[k]
		// cannot change while k is being processed (self-bits never
		// exist, so no new j here equals k), making the iteration safe.
		g.rev[k].ForEach(func(i int) {
			if g.orRow(i, krow) > 0 {
				changed = true
				g.push(i)
			}
		})
	}
	return changed
}

// orRow ORs krow into action i's successor row (clearing the self-bit),
// maintains rev for every newly reachable successor, tallies the new
// edges under RuleTransitive, and returns how many bits were added.
func (g *Graph) orRow(i int, krow bitset.Set) int {
	row := g.hb[i]
	added := 0
	for w, kw := range krow {
		if w == i>>6 {
			kw &^= 1 << (uint(i) & 63)
		}
		if kw == 0 {
			continue
		}
		for len(row) <= w {
			row = append(row, 0)
		}
		nw := kw &^ row[w]
		if nw == 0 {
			continue
		}
		row[w] |= nw
		added += mathbits.OnesCount64(nw)
		for rem := nw; rem != 0; rem &= rem - 1 {
			j := w<<6 + mathbits.TrailingZeros64(rem)
			g.rev[j].Add(i)
		}
	}
	g.hb[i] = row
	g.ruleCounts[RuleTransitive] += added
	return added
}

// push queues action i for closure propagation (idempotent).
func (g *Graph) push(i int) {
	if !g.inWork[i] {
		g.inWork[i] = true
		g.work = append(g.work, i)
	}
}
