package symexec

import (
	"context"
	"time"

	"sierra/internal/actions"
	"sierra/internal/bitset"
	"sierra/internal/ir"
	"sierra/internal/obs"
	"sierra/internal/pointer"
	"sierra/internal/race"
)

// Verdict is the refutation outcome for one candidate pair.
type Verdict struct {
	// TruePositive: both orderings admit a feasible witness path, so the
	// pair is reported as a race.
	TruePositive bool
	// RefutedOrders names infeasible orderings ("A<B", "B<A").
	RefutedOrders []string
	// Paths is the number of backward paths explored.
	Paths int
	// BudgetExhausted marks that the path budget ran out; per the paper
	// the pair is then reported anyway (possible false positive).
	BudgetExhausted bool
}

// Config tunes the refuter.
type Config struct {
	// MaxPaths bounds backward path exploration per query (the paper
	// uses 5,000).
	MaxPaths int
	// MaxDepth bounds call inlining depth (the paper uses 6).
	MaxDepth int
	// DisableCache turns off cross-query memoization (for the ablation
	// benchmark).
	DisableCache bool
	// Jobs is the per-pair refutation parallelism for CheckAll. At most
	// 1 (the default) pairs are refuted sequentially by one refuter
	// whose memo tables span pairs — the legacy behavior, bit-for-bit.
	// Above 1, each pair is refuted independently on a bounded worker
	// pool with private memo tables over shared read-only graphs, so
	// every verdict is a pure function of its pair: deterministic for
	// any worker count, but path counts — and, at tight budgets,
	// verdicts — can differ from the memo-amplified sequential path.
	Jobs int
	// Obs, when non-nil, receives the refutation effort counters and the
	// per-pair refute.pair_paths series (see README.md "Observability").
	// Nil costs nothing.
	Obs *obs.Trace
	// Ctx, when non-nil, is polled every few dozen explored paths; once
	// done the walk bails as if its path budget ran out, so interrupted
	// pairs keep the paper's over-approximate "report anyway" verdict.
	Ctx context.Context

	// cloneWalker switches the walker to the clone-per-predecessor
	// reference implementation retained for the parity property test.
	// Unexported on purpose: only in-package tests drive it; shipped
	// callers always get the allocation-free trail walker.
	cloneWalker bool
}

// EntryStoreCap bounds the distinct constraint stores one A-walk may
// collect; stores beyond it are dropped (a sound over-approximation
// surfaced by the refute.entry_stores_capped counter). Exported so
// front ends can explain the counter in user-facing notes.
const EntryStoreCap = 64

// entryKey memoizes A-walks per (action, access, seed index).
type entryKey struct {
	action  int
	pos     ir.Pos
	seedIdx int
}

// witnessKey buckets E-walk memo entries by (action, access, store
// hash); entries within a bucket are disambiguated by structural store
// equality.
type witnessKey struct {
	action int
	pos    ir.Pos
	h      uint64
}

// witnessEntry is one memoized E-walk result, keeping the initial store
// so hash collisions verify instead of aliasing.
type witnessEntry struct {
	st *frozen
	ok bool
}

// wbucket holds a witness key's memo entries with the common single
// entry inline, so a fresh key costs one slab bump instead of a heap
// slice.
type wbucket struct {
	first    witnessEntry
	hasFirst bool
	rest     []witnessEntry
}

// ptsKey memoizes per-action points-to resolution. Resolution depends
// only on the frame's method (the union spans the action's instances of
// it), never on the inline frame id.
type ptsKey struct {
	action int
	m      *ir.Method
	v      string
}

// Refuter performs backward symbolic execution over actions.
type Refuter struct {
	Reg *actions.Registry
	Res *pointer.Result
	Cfg Config

	callees func(ir.Pos) []*ir.Method
	insts   map[int][]pointer.MKey
	graphs  map[int][]*igraph
	// igb is the refuter's persistent graph builder: scratch buffers and
	// output slabs amortize across every action it inlines, and the
	// finished graphs reference its slabs (same lifetime as graphs).
	// Lazily created; forks get their own (they share graphs and rarely
	// build).
	igb *igBuilder
	// entryMemo caches A-walk results: the constraint stores required at
	// the later action's entry to reach the access.
	entryMemo map[entryKey]*entryResult
	// witnessMemo caches E-walk results per (action, access, store),
	// hash-bucketed with structural verification on lookup.
	witnessMemo map[witnessKey]*wbucket
	// ptsMemo caches resolved points-to unions per (action, method, var)
	// so the E-walk stops re-unioning ObjSets on every Load/Store
	// transfer.
	ptsMemo map[ptsKey]pointer.ObjSet
	// seedMemo caches whatSeeds per action (the seeds are read-only).
	seedMemo map[int][]*frozen
	// arena slab-allocates everything the memos retain (frozen stores,
	// entry results, witness buckets); objArena backs the resolvePts
	// ObjSet words. Both reset together with the memos (resetPair).
	arena    storeArena
	objArena bitset.Arena
	// objWords pre-sizes arena-backed ObjSets to the analysis id space
	// so unions never reallocate.
	objWords int
	// sinkStores is the A-walk sink's per-query scratch (dedup happens
	// against it; freezePtrs right-sizes it into the memo), and
	// entrySinkFn the sink bound once so each query avoids a closure.
	sinkStores  []*frozen
	entrySinkFn func(*store)
	// seedScratch is computeWhatSeeds' reusable store-building scratch.
	seedScratch store
	// pruned accumulates dead (contradiction/bound) paths across walks.
	pruned int64
	// entryCapped counts stores dropped by entryStoreCap across walks.
	entryCapped int64
	// walkVisits, walkTrail, walkStore, and walkScratch are the trail
	// walker's reusable scratch: visit counts return to zero after every
	// balanced walk, the trail's backing array survives across queries,
	// beginWalk resets walkStore instead of cloning, and the walker
	// struct itself is recycled (the refuter runs one walk at a time) —
	// so steady-state walks allocate nothing.
	walkVisits  []uint8
	walkTrail   trail
	walkStore   store
	walkScratch walker
	// feasInit is feasible's reusable seed-merge scratch (the E-walk's
	// initial store); the witness memo clones what it retains.
	feasInit store
	// cancelled is the walk cancellation probe (nil when Cfg.Ctx is),
	// built once so walker construction does not allocate a closure.
	cancelled func() bool
}

type entryResult struct {
	stores   []*frozen
	budget   bool
	explored int
}

// NewRefuter builds a refuter for one analyzed app.
func NewRefuter(reg *actions.Registry, res *pointer.Result, cfg Config) *Refuter {
	if cfg.MaxPaths == 0 {
		cfg.MaxPaths = 5000
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 6
	}
	r := &Refuter{
		Reg:         reg,
		Res:         res,
		Cfg:         cfg,
		callees:     res.CalleeMethods(),
		insts:       reg.ActionInstances(res),
		graphs:      map[int][]*igraph{},
		entryMemo:   map[entryKey]*entryResult{},
		witnessMemo: map[witnessKey]*wbucket{},
		ptsMemo:     map[ptsKey]pointer.ObjSet{},
		seedMemo:    map[int][]*frozen{},
		objWords:    (res.Interner().NumObjs() + 63) / 64,
	}
	r.cancelled = r.cancelPoll()
	r.entrySinkFn = r.recordEntryStore
	return r
}

// resetPair recycles a pooled worker refuter between pairs: every keyed
// memo is cleared and both arenas rewound, which is observably
// identical to a fresh fork (each memo starts empty; the shared graphs
// are read-only), so a pair's verdict stays a pure function of the
// pair. Cumulative tallies (pruned, entryCapped, arena bytes) survive —
// check reads deltas and the arenas report lifetime bytes.
func (r *Refuter) resetPair() {
	clear(r.entryMemo)
	clear(r.witnessMemo)
	clear(r.ptsMemo)
	clear(r.seedMemo)
	r.arena.reset()
	r.objArena.Reset()
	r.sinkStores = r.sinkStores[:0]
}

// arenaBytes reports the lifetime bytes bump-allocated by this
// refuter's arenas (the symexec.arena_bytes counter's unit).
func (r *Refuter) arenaBytes() int64 {
	return r.arena.bytes + r.objArena.Bytes()
}

// Check decides whether the candidate pair survives refutation: a pair
// is a true positive iff a feasible path witnesses it in both orderings
// of the two actions (§5). Per-pair wall time is measured only when a
// trace is attached, so the telemetry-off path pays nothing.
func (r *Refuter) Check(p race.Pair) Verdict {
	var t0 time.Time
	if r.Cfg.Obs != nil {
		t0 = time.Now()
	}
	v, pruned, capped := r.check(p)
	if r.Cfg.Obs != nil {
		recordVerdict(r.Cfg.Obs, p, v, pruned, capped, float64(time.Since(t0))/1e6)
	}
	return v
}

// check is Check without observability: it returns the verdict plus
// the pruned-path and capped-store deltas so callers that defer obs
// recording (the parallel pool's in-order emitter) can replay them
// later.
func (r *Refuter) check(p race.Pair) (Verdict, int64, int64) {
	v := Verdict{}
	budget := r.Cfg.MaxPaths
	prunedBefore := r.pruned
	cappedBefore := r.entryCapped

	abFeasible, used1, b1 := r.feasible(p.A, p.B, budget)
	v.Paths += used1
	budget -= used1
	if budget < 0 {
		budget = 0
	}
	baFeasible, used2, b2 := r.feasible(p.B, p.A, budget)
	v.Paths += used2
	v.BudgetExhausted = b1 || b2

	if !abFeasible {
		v.RefutedOrders = append(v.RefutedOrders, "A<B")
	}
	if !baFeasible {
		v.RefutedOrders = append(v.RefutedOrders, "B<A")
	}
	v.TruePositive = abFeasible && baFeasible
	return v, r.pruned - prunedBefore, r.entryCapped - cappedBefore
}

// recordVerdict emits one pair's refutation counters, its
// refute.pair_paths sample, and the refute.pair_ms / refute.walk_paths
// histogram observations (nil Trace = no-op; durMS < 0 means the pair
// was not timed). Sequential Check calls it inline; CheckAll's
// parallel path calls it from the in-order emitter so counter and
// series order match the sequential run.
func recordVerdict(tr *obs.Trace, p race.Pair, v Verdict, pruned, capped int64, durMS float64) {
	if tr == nil {
		return
	}
	refutedAB, refutedBA := false, false
	for _, o := range v.RefutedOrders {
		switch o {
		case "A<B":
			refutedAB = true
		case "B<A":
			refutedBA = true
		}
	}
	tr.Count("refute.pairs", 1)
	tr.Count("refute.paths", int64(v.Paths))
	tr.Count("refute.paths_pruned", pruned)
	if capped > 0 {
		tr.Count("refute.entry_stores_capped", capped)
	}
	if v.BudgetExhausted {
		tr.Count("refute.budget_exhausted", 1)
	}
	switch {
	case v.TruePositive:
		tr.Count("refute.verdict.race", 1)
	case refutedAB && refutedBA:
		tr.Count("refute.verdict.refuted_both", 1)
	case refutedAB:
		tr.Count("refute.verdict.refuted_ab", 1)
	default:
		tr.Count("refute.verdict.refuted_ba", 1)
	}
	tr.Series("refute.pair_paths", p.Key(), int64(v.Paths))
	tr.Observe("refute.walk_paths", float64(v.Paths))
	if durMS >= 0 {
		tr.Observe("refute.pair_ms", durMS)
	}
}

// feasible checks the ordering "first's action completes, then second's
// action runs": backward from the second access to its action entry
// (collecting path constraints), then backward through the first action
// from its exits — passing the first access — to its entry. Message
// actions with constant codes get their what-field pre-seeded — the
// paper's on-demand constant propagation (§5). Returns (feasible,
// pathsUsed, budgetExhausted). Budget exhaustion counts as feasible
// (over-approximate races, per the paper).
func (r *Refuter) feasible(first, second race.Access, budget int) (bool, int, bool) {
	if budget <= 0 {
		return true, 0, true
	}
	used := 0
	// Disjunction over the second action's possible message codes.
	for wi, wseed := range r.whatSeeds(second.Action) {
		stores, bhit, explored := r.entryConstraints(second, wi, wseed, budget-used)
		used += explored
		if bhit {
			return true, used, true
		}
		if len(stores) == 0 {
			continue // this code makes the access unreachable
		}
		remaining := budget - used
		if remaining <= 0 {
			return true, used, true
		}
		for _, st := range stores {
			// Disjunction over the first action's codes too.
			for _, fseed := range r.whatSeeds(first.Action) {
				// Reusable scratch: the witness memo freezes the store
				// if it decides to retain it.
				init := &r.feasInit
				init.resetToFrozen(st)
				if !mergeFrozen(init, fseed) {
					continue
				}
				ok, u, bhit := r.witness(first, init, remaining)
				used += u
				remaining -= u
				if bhit {
					return true, used, true
				}
				if ok {
					return true, used, false
				}
				if remaining <= 0 {
					return true, used, true
				}
			}
		}
	}
	return false, used, false
}

// whatSeeds returns (and memoizes — the stores are read-only) the
// initial constraint stores for an action: one per constant message
// code observed at its send sites (constraining the message objects'
// what field), or a single empty store when the action is not a
// constant-coded message.
func (r *Refuter) whatSeeds(aid int) []*frozen {
	if seeds, ok := r.seedMemo[aid]; ok {
		return seeds
	}
	seeds := r.computeWhatSeeds(aid)
	r.seedMemo[aid] = seeds
	return seeds
}

func (r *Refuter) computeWhatSeeds(aid int) []*frozen {
	a := r.Reg.Get(aid)
	st := &r.seedScratch
	if a.Kind != actions.KindMessage || len(a.MsgWhats) == 0 {
		return []*frozen{r.arena.newFrozen()}
	}
	var out []*frozen
	for _, w := range a.MsgWhats {
		st.resetToFrozen(&emptyFrozen)
		consistent := true
		for _, root := range a.Roots {
			if len(root.Params) == 0 {
				continue
			}
			msgObjs := r.resolvePts(aid, &frame{id: 0, m: root}, root.Params[0])
			for _, o := range msgObjs.Slice() {
				if !mergeLoc(st, locKey{obj: o, field: "what"}, mustEq(intVal(w))) {
					consistent = false
				}
			}
		}
		if consistent {
			out = append(out, r.arena.freeze(st, st.hash()))
		}
	}
	if len(out) == 0 {
		return []*frozen{r.arena.newFrozen()}
	}
	return out
}

// mustEq wraps a value as a must-equal constraint.
func mustEq(v value) constraint { return constraint{eqv: v, hasEq: true} }

// mergeStores conjoins src's constraints into dst, reporting
// satisfiability.
func mergeStores(dst, src *store) bool {
	for name, c := range src.vars {
		if !mergeVar(dst, name, c) {
			return false
		}
	}
	for lk, c := range src.locs {
		if !mergeLoc(dst, lk, c) {
			return false
		}
	}
	return true
}

// newWalker recycles the refuter's walker scratch for a walk over g,
// wiring in the reusable dense-visit array, trail, and walk store (the
// refuter runs one walk at a time, so sharing is safe; forks carry
// their own scratch).
func (r *Refuter) newWalker(g *igraph, aid, budget int) *walker {
	w := &r.walkScratch
	*w = walker{
		g:         g,
		ref:       r,
		aid:       aid,
		budget:    budget,
		cloneRef:  r.Cfg.cloneWalker,
		cancelled: r.cancelled,
	}
	if !w.cloneRef {
		if len(r.walkVisits) < len(g.nodes) {
			r.walkVisits = make([]uint8, len(g.nodes))
		}
		w.visits = r.walkVisits
		w.tr = &r.walkTrail
		w.scratch = &r.walkStore
	}
	return w
}

// entryConstraints runs (and memoizes) the A-walk: backward from the
// access to its action's entry under an initial seed store, yielding the
// distinct constraint stores under which the access is reachable, plus
// whether the budget ran out and how many paths the call itself
// explored (0 on a memo hit — cached stores cost nothing to reuse).
func (r *Refuter) entryConstraints(acc race.Access, seedIdx int, seed *frozen, budget int) (stores []*frozen, budgetHit bool, explored int) {
	key := entryKey{action: acc.Action, pos: acc.Pos, seedIdx: seedIdx}
	if !r.Cfg.DisableCache {
		if have, ok := r.entryMemo[key]; ok {
			return have.stores, have.budget, 0
		}
	}
	res := r.arena.newResult()
	r.sinkStores = r.sinkStores[:0]
	for _, g := range r.actionGraphs(acc.Action) {
		w := r.newWalker(g, acc.Action, budget-res.explored)
		for _, start := range g.byPos[acc.Pos] {
			w.collectEntryFrom(start, seed, r.entrySinkFn)
		}
		res.explored += w.paths
		r.pruned += int64(w.pruned)
		if w.budgetHit {
			res.budget = true
			break
		}
	}
	res.stores = r.arena.freezePtrs(r.sinkStores)
	if !r.Cfg.DisableCache {
		r.entryMemo[key] = res
	}
	return res.stores, res.budget, res.explored
}

// recordEntryStore is the A-walk sink (bound once as entrySinkFn): it
// dedups the walked-in store against everything this query has kept so
// far (hash-then-verify, the same partition the old per-query map
// induced), enforces EntryStoreCap, and freezes survivors into the
// arena.
func (r *Refuter) recordEntryStore(st *store) {
	h := st.hash()
	for _, prev := range r.sinkStores {
		if prev.h == h && prev.equalsStore(st) {
			return
		}
	}
	if len(r.sinkStores) >= EntryStoreCap {
		r.entryCapped++
		return
	}
	r.sinkStores = append(r.sinkStores, r.arena.freeze(st, h))
}

// witness runs the E-walk: backward through the first action from its
// exits to its entry, requiring the path to execute the access, under
// the given initial constraints.
func (r *Refuter) witness(acc race.Access, init *store, budget int) (ok bool, used int, budgetHit bool) {
	useCache := !r.Cfg.DisableCache
	var wkey witnessKey
	var bkt *wbucket
	if useCache {
		wkey = witnessKey{action: acc.Action, pos: acc.Pos, h: init.hash()}
		bkt = r.witnessMemo[wkey]
		if bkt != nil {
			if bkt.hasFirst && bkt.first.st.equalsStore(init) {
				return bkt.first.ok, 0, false
			}
			for _, e := range bkt.rest {
				if e.st.equalsStore(init) {
					return e.ok, 0, false
				}
			}
		}
	}
	for _, g := range r.actionGraphs(acc.Action) {
		w := r.newWalker(g, acc.Action, budget-used)
		w.target = acc.Pos
		hit := w.findWitness(init)
		used += w.paths
		r.pruned += int64(w.pruned)
		if w.budgetHit {
			return true, used, true
		}
		if hit {
			if useCache {
				r.recordWitness(bkt, wkey, init, true)
			}
			return true, used, false
		}
		if used >= budget {
			return true, used, true
		}
	}
	if useCache {
		r.recordWitness(bkt, wkey, init, false)
	}
	return false, used, false
}

// recordWitness freezes the caller's reusable init scratch into the
// arena and appends the verdict to the key's bucket (creating it on
// first sight). Lookup order — inline first entry, then rest — matches
// the old slice append order.
func (r *Refuter) recordWitness(bkt *wbucket, wkey witnessKey, init *store, ok bool) {
	e := witnessEntry{st: r.arena.freeze(init, wkey.h), ok: ok}
	if bkt == nil {
		bkt = r.arena.newWBucket()
		r.witnessMemo[wkey] = bkt
	}
	if !bkt.hasFirst {
		bkt.first = e
		bkt.hasFirst = true
		return
	}
	bkt.rest = append(bkt.rest, e)
}

// cancelPoll returns the walker's cancellation probe (nil when no
// context is configured, keeping the uncancellable path free).
func (r *Refuter) cancelPoll() func() bool {
	ctx := r.Cfg.Ctx
	if ctx == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}

// actionGraphs returns (building on demand) the inlined graphs of the
// action's roots.
func (r *Refuter) actionGraphs(aid int) []*igraph {
	if gs, ok := r.graphs[aid]; ok {
		return gs
	}
	if r.igb == nil {
		r.igb = newIGBuilder()
	}
	var gs []*igraph
	for _, root := range r.Reg.Get(aid).Roots {
		gs = append(gs, r.igb.build(root, r.callees, igraphLimits{
			maxDepth: r.Cfg.MaxDepth,
		}))
	}
	r.graphs[aid] = gs
	return gs
}

// resolvePts resolves a frame variable's points-to set within an
// action — the union over the action's instances of that method —
// memoized per (action, method, var) so repeated Load/Store transfers
// on the walk spine hit a map instead of re-unioning ObjSets. The
// returned sets are shared and must be treated as read-only.
func (r *Refuter) resolvePts(aid int, f *frame, v string) pointer.ObjSet {
	k := ptsKey{action: aid, m: f.m, v: v}
	if s, ok := r.ptsMemo[k]; ok {
		return s
	}
	var out pointer.ObjSet
	if r.objWords > 0 {
		// Arena-backed words pre-sized to the analysis id space: the
		// unions below never reallocate, and the memoized set's storage
		// is recycled with the memo on resetPair.
		out = r.Res.Interner().NewSetBacked(r.objArena.Words(r.objWords))
	} else {
		out = r.Res.NewObjSet()
	}
	for _, mk := range r.insts[aid] {
		if mk.M == f.m {
			out.AddAll(r.Res.PointsTo(mk.M, mk.Ctx, v))
		}
	}
	r.ptsMemo[k] = out
	return out
}
