package pointer

import (
	"context"
	"fmt"
	"sort"

	"sierra/internal/frontend"
	"sierra/internal/ir"
	"sierra/internal/obs"
)

// Entry is an analysis entrypoint: a method instance with seeded
// receiver/parameter points-to sets. Harness mains and action roots are
// entries.
type Entry struct {
	Method *ir.Method
	Ctx    Context
	// This seeds the receiver variable.
	This []Obj
	// ParamObjs seeds parameters with objects directly.
	ParamObjs map[string][]Obj
	// ParamFrom installs persistent copy constraints param ⊆ src, e.g.
	// handleMessage's msg parameter from the sendMessage argument.
	ParamFrom map[string]VarKey
}

// Seed is a cross-context copy constraint: the points-to set of
// (SrcMethod, SrcVar) under every context flows into (DstMethod, DstVar)
// under every context. Harness GUI receiver variables are seeded this
// way from listener-registration arguments.
type Seed struct {
	SrcMethod *ir.Method
	SrcVar    string
	DstMethod *ir.Method
	DstVar    string
}

// Event is a recognized framework API call observed during the analysis,
// with the current points-to sets of its receiver and arguments. The
// OnEvent hook turns spawn events into new analysis entries (action
// roots) and records HB bookkeeping.
type Event struct {
	Caller MKey
	Pos    ir.Pos
	Inv    *ir.Invoke
	API    frontend.APICall
	Recv   []Obj
	Args   [][]Obj
	// FieldObjs reads the current points-to set of an object's field —
	// e.g. resolving an Intent's target activity at startActivity sites.
	FieldObjs func(Obj, string) []Obj
}

// Solver selects the fixpoint strategy. Both solvers compute the exact
// same Result — same points-to sets, same instance/entry discovery
// order, same call-edge order, same pass count — the difference is only
// how much no-op work each pass re-does.
type Solver string

const (
	// SolverDelta is the difference-propagation worklist solver (the
	// default): it tracks which points-to keys grew, maintains a
	// dependency index from keys to the statements / copy edges / seeds /
	// event sites that consume them, and only re-runs transfer functions
	// whose inputs actually changed.
	SolverDelta Solver = "delta"
	// SolverExhaustive re-runs every statement of every instance each
	// pass — the simple reference solver kept as an escape hatch and as
	// the parity oracle for the delta solver's tests.
	SolverExhaustive Solver = "exhaustive"
)

// ParseSolver validates a -pta-solver flag value ("" means the default,
// delta).
func ParseSolver(s string) (Solver, error) {
	switch Solver(s) {
	case "", SolverDelta:
		return SolverDelta, nil
	case SolverExhaustive:
		return SolverExhaustive, nil
	}
	return "", fmt.Errorf("unknown points-to solver %q (want %q or %q)", s, SolverDelta, SolverExhaustive)
}

// Config parameterizes Analyze.
type Config struct {
	Prog   *ir.Program
	Policy Policy
	// Solver picks the fixpoint strategy; the zero value means
	// SolverDelta. Results are identical either way.
	Solver Solver
	// Entries are the initial roots (typically the harness mains).
	Entries []Entry
	// Seeds are cross-context copy constraints.
	Seeds []Seed
	// Views maps layout view ids to view classes for findViewById.
	Views map[int]string
	// OnEvent, when set, is consulted for every recognized framework API
	// call each pass. It must be idempotent: the engine re-fires events
	// as points-to sets grow.
	OnEvent func(Event) []Entry
	// ActionAt maps a call site to the action id entered when the callee
	// runs (harness lifecycle/GUI sites). Under action-sensitive
	// policies the callee context's Action is set accordingly.
	ActionAt func(ir.Pos) (int, bool)
	// MaxPasses bounds the global fixpoint (safety valve; 0 = default).
	MaxPasses int
	// Ctx, when non-nil, is polled at pass boundaries and every
	// ctxStride instances within a pass; once done the fixpoint stops
	// early and the result is marked Interrupted (sound for the facts
	// derived so far, but incomplete).
	Ctx context.Context
	// Obs, when non-nil, receives the analysis effort counters
	// (pointer.* — see README.md "Observability"). Nil costs nothing.
	Obs *obs.Trace
}

// Analyze runs the points-to analysis to fixpoint and returns the result
// (points-to sets plus the context-sensitive call graph).
func Analyze(cfg Config) *Result {
	a := newAnalyzer(cfg)
	a.run()
	return a.res
}

// newAnalyzer constructs the solver state for cfg without running it.
// Split from Analyze so AnalyzeWarm can keep the analyzer alive for
// incremental re-solving after the initial fixpoint.
func newAnalyzer(cfg Config) *analyzer {
	if cfg.Policy == nil {
		cfg.Policy = ActionSensitivePolicy{K: 2}
	}
	if cfg.MaxPasses == 0 {
		cfg.MaxPasses = 200
	}
	// The tables start empty and grow with what the fixpoint reaches:
	// sizing them from program text would zero and GC-scan room for
	// code no entry reaches (most of a padded app).
	in := NewInterner()
	a := &analyzer{
		cfg: cfg,
		in:  in,
		res: &Result{
			Policy:    cfg.Policy,
			in:        in,
			pts:       make(map[VarKey]ObjSet),
			fpts:      make(map[FieldKey]ObjSet),
			spts:      make(map[string]ObjSet),
			instances: make(map[MKey]bool),
			byMethod:  make(map[*ir.Method][]MKey),
			callees:   make(map[siteKey][]MKey),
		},
		edgeOf:     make(map[VarKey]*copyEdge),
		calleeSeen: make(map[calleeEdge]bool),
	}
	a.viewFallback = sortedViewObjs(cfg.Views)
	if cfg.Solver != SolverExhaustive {
		a.d = newDeltaState(a)
	}
	for _, e := range cfg.Entries {
		a.install(e, true)
	}
	return a
}

// run drives the constructed analyzer to its initial fixpoint.
func (a *analyzer) run() {
	if a.d != nil {
		a.runDelta()
	} else {
		a.runExhaustive()
	}
	a.reportObs()
}

// runExhaustive is the reference fixpoint: every pass re-runs every
// statement of every discovered instance, then all copy edges, seeds,
// and events.
func (a *analyzer) runExhaustive() {
	cfg := a.cfg
	for pass := 0; pass < cfg.MaxPasses; pass++ {
		if ctxDone(cfg.Ctx) {
			a.res.Interrupted = true
			break
		}
		a.res.passes = pass + 1
		changed := false
		// Statements of every discovered instance (order-stable: the
		// slice only grows, and growth order is deterministic).
		for i := 0; i < len(a.order); i++ {
			if i%ctxStride == ctxStride-1 && ctxDone(cfg.Ctx) {
				a.res.Interrupted = true
				break
			}
			a.stats.iterations++
			if a.processInstance(a.order[i]) {
				changed = true
			}
		}
		if a.res.Interrupted {
			break
		}
		if a.applyCopies() {
			changed = true
		}
		if a.applySeeds() {
			changed = true
		}
		if a.fireEvents() {
			changed = true
		}
		if !changed {
			break
		}
	}
}

// ctxStride is how many instances a pass processes between context
// polls; ctx.Err takes a lock, so the worklist does not check per
// statement.
const ctxStride = 256

// ctxDone reports whether the (possibly nil) context is cancelled.
func ctxDone(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// reportObs publishes the fixpoint's effort counters (no-op on nil Obs).
func (a *analyzer) reportObs() {
	tr := a.cfg.Obs
	if tr == nil {
		return
	}
	tr.Count("pointer.passes", int64(a.res.passes))
	if a.res.Interrupted {
		tr.Count("pointer.interrupted", 1)
	}
	tr.Count("pointer.worklist_iterations", a.stats.iterations)
	tr.Observe("pointer.solve_iterations", float64(a.stats.iterations))
	if a.d != nil {
		tr.Count("pointer.dirty_instances", a.stats.dirtyInstances)
		tr.Count("pointer.transfer_skips", a.stats.transferSkips)
		tr.Count("pointer.delta_props", a.stats.deltaProps)
		tr.Count("pointer.dep_edges", int64(a.d.depEdges()))
	}
	tr.Count("pointer.instances", int64(len(a.res.instances)))
	tr.Count("pointer.entries", int64(len(a.res.entryKeys)))
	tr.Count("pointer.cha_targets", a.stats.chaTargets)
	tr.Count("pointer.events_fired", a.stats.eventsFired)
	edges := 0
	for _, callees := range a.res.callees {
		edges += len(callees)
	}
	tr.Count("pointer.call_edges", int64(edges))
	copies := 0
	for _, e := range a.sortedCopies {
		copies += len(e.srcs)
	}
	tr.Count("pointer.copy_constraints", int64(copies))
	var totalObjs, maxSet, words int
	for _, set := range a.res.pts {
		n := set.Len()
		totalObjs += n
		if n > maxSet {
			maxSet = n
		}
		words += set.Words()
	}
	for _, set := range a.res.fpts {
		words += set.Words()
	}
	for _, set := range a.res.spts {
		words += set.Words()
	}
	tr.Count("pointer.objset_words", int64(words))
	tr.Count("pointer.interned_objs", int64(a.in.NumObjs()))
	tr.Gauge("pointer.pts_vars", float64(len(a.res.pts)))
	tr.Gauge("pointer.pts_objs", float64(totalObjs))
	tr.Gauge("pointer.pts_max", float64(maxSet))
}

// siteKey identifies a call site instance.
type siteKey struct {
	Caller MKey
	Pos    ir.Pos
}

type analyzer struct {
	cfg   Config
	in    *Interner
	res   *Result
	order []MKey // instance worklist in discovery order
	// edgeOf maps each copy destination to its edge, so addCopy finds
	// (or dedups) an edge with one hash lookup plus a scan of the
	// destination's short source list — no nested membership maps and no
	// key re-rendering per call.
	edgeOf map[VarKey]*copyEdge
	// sortedCopies holds the copy edges String()-ordered so applyCopies
	// iterates deterministically without re-sorting (and re-rendering
	// keys) every sweep.
	sortedCopies []*copyEdge
	// calleeSeen is the membership mirror of res.callees, so recordEdge
	// is O(1) per re-visit instead of a linear scan of the edge list.
	calleeSeen map[calleeEdge]bool
	// viewFallback is the sorted all-views slice viewObjs falls back to
	// for non-constant findViewById arguments, computed once.
	viewFallback []Obj
	// d holds the difference-propagation state; nil under the exhaustive
	// solver.
	d *deltaState
	// stats feeds the pointer.* observability counters.
	stats struct {
		iterations     int64 // instance sweep slots visited, summed over passes
		chaTargets     int64 // dispatch targets resolved at call sites
		eventsFired    int64 // OnEvent hook invocations
		dirtyInstances int64 // delta: instances actually processed
		transferSkips  int64 // delta: sweep slots skipped (no input grew)
		deltaProps     int64 // delta: dirty statement transfers re-run
	}
}

// calleeEdge is one (call site, callee) pair — the recordEdge dedup key.
type calleeEdge struct {
	sk     siteKey
	callee MKey
}

// copyEdge is one destination's persistent copy constraints, its
// sources kept String()-sorted.
type copyEdge struct {
	key  string
	dst  VarKey
	srcs []copySrc
	// dirty marks that some source grew since the delta solver last
	// applied this edge (unused by the exhaustive solver).
	dirty bool
}

type copySrc struct {
	key string
	src VarKey
}

// install registers an entry's method instance and seeds, reporting
// whether anything new was learned.
func (a *analyzer) install(e Entry, isRoot bool) bool {
	if e.Method == nil {
		return false
	}
	changed := false
	mk := MKey{M: e.Method, Ctx: e.Ctx}
	if a.newInstance(mk, isRoot) {
		changed = true
	}
	thisKey := VarKey{M: e.Method, Ctx: e.Ctx, Var: "this"}
	for _, o := range e.This {
		if a.pts(thisKey).Add(o) {
			changed = true
			a.touchVar(thisKey)
		}
	}
	for v, objs := range e.ParamObjs {
		k := VarKey{M: e.Method, Ctx: e.Ctx, Var: v}
		for _, o := range objs {
			if a.pts(k).Add(o) {
				changed = true
				a.touchVar(k)
			}
		}
	}
	for v, src := range e.ParamFrom {
		dst := VarKey{M: e.Method, Ctx: e.Ctx, Var: v}
		if !a.hasCopy(dst, src) {
			a.addCopy(dst, src)
			changed = true
		}
	}
	return changed
}

// newInstance registers a method instance on first sight: the instance
// set, the discovery-ordered worklist, the per-method index, the entry
// list (for roots), and — under the delta solver — the per-statement
// dirty bookkeeping. Reports whether the instance was new.
func (a *analyzer) newInstance(mk MKey, isRoot bool) bool {
	if a.res.instances[mk] {
		return false
	}
	a.res.instances[mk] = true
	a.order = append(a.order, mk)
	a.res.byMethod[mk.M] = append(a.res.byMethod[mk.M], mk)
	if isRoot {
		a.res.entryKeys = append(a.res.entryKeys, mk)
	}
	if a.d != nil {
		a.d.registerInstance(a, len(a.order)-1, mk)
	}
	return true
}

// touchVar / touchField / touchStatic notify the delta solver that a
// points-to set grew (no-ops under the exhaustive solver).
func (a *analyzer) touchVar(k VarKey) {
	if a.d != nil {
		a.d.touchVar(k)
	}
}

func (a *analyzer) touchField(k FieldKey) {
	if a.d != nil {
		a.d.touchField(k)
	}
}

func (a *analyzer) touchStatic(key string) {
	if a.d != nil {
		a.d.touchStatic(key)
	}
}

func (a *analyzer) pts(k VarKey) ObjSet {
	s, ok := a.res.pts[k]
	if !ok {
		s = a.in.NewSet()
		a.res.pts[k] = s
	}
	return s
}

func (a *analyzer) fpts(k FieldKey) ObjSet {
	s, ok := a.res.fpts[k]
	if !ok {
		s = a.in.NewSet()
		a.res.fpts[k] = s
	}
	return s
}

func (a *analyzer) spts(cls, field string) ObjSet {
	key := cls + "." + field
	s, ok := a.res.spts[key]
	if !ok {
		s = a.in.NewSet()
		a.res.spts[key] = s
	}
	return s
}

// hasCopy reports whether dst ⊆ src is already recorded. Source lists
// are short (a destination's fan-in), so a scan beats a nested map.
func (a *analyzer) hasCopy(dst, src VarKey) bool {
	e := a.edgeOf[dst]
	if e == nil {
		return false
	}
	for i := range e.srcs {
		if e.srcs[i].src == src {
			return true
		}
	}
	return false
}

// addCopy records dst ⊆ src, keeping the sorted iteration mirrors in
// sync (no-op for an already-known edge).
func (a *analyzer) addCopy(dst, src VarKey) {
	e := a.edgeOf[dst]
	if e == nil {
		e = a.insertCopyEdge(dst)
		a.edgeOf[dst] = e
	}
	for i := range e.srcs {
		if e.srcs[i].src == src {
			return
		}
	}
	a.insertCopySrc(e, src)
	if a.d != nil {
		a.d.registerCopy(e, src)
	}
}

// insertCopyEdge places a new destination into sortedCopies at its
// String()-ordered position, returning the fresh edge.
func (a *analyzer) insertCopyEdge(dst VarKey) *copyEdge {
	key := dst.String()
	i := sort.Search(len(a.sortedCopies), func(i int) bool {
		return a.sortedCopies[i].key >= key
	})
	a.sortedCopies = append(a.sortedCopies, nil)
	copy(a.sortedCopies[i+1:], a.sortedCopies[i:])
	e := &copyEdge{key: key, dst: dst}
	a.sortedCopies[i] = e
	return e
}

// insertCopySrc places a new source into the destination edge's sorted
// source list.
func (a *analyzer) insertCopySrc(e *copyEdge, src VarKey) {
	skey := src.String()
	j := sort.Search(len(e.srcs), func(j int) bool {
		return e.srcs[j].key >= skey
	})
	e.srcs = append(e.srcs, copySrc{})
	copy(e.srcs[j+1:], e.srcs[j:])
	e.srcs[j] = copySrc{key: skey, src: src}
}

// processInstance applies all statement transfer functions of one method
// instance, returning whether any points-to set grew.
func (a *analyzer) processInstance(mk MKey) bool {
	changed := false
	for _, blk := range mk.M.Blocks {
		for _, s := range blk.Stmts {
			if a.transfer(mk, s) {
				changed = true
			}
		}
	}
	return changed
}

func (a *analyzer) transfer(mk MKey, s ir.Stmt) bool {
	key := func(v string) VarKey { return VarKey{M: mk.M, Ctx: mk.Ctx, Var: v} }
	switch st := s.(type) {
	case *ir.New:
		o := Obj{Site: st.Site, Ctx: a.cfg.Policy.HeapCtx(mk.Ctx), Class: st.Class}
		return a.pts(key(st.Dst)).Add(o)
	case *ir.Move:
		return a.pts(key(st.Dst)).AddAll(a.pts(key(st.Src)))
	case *ir.Load:
		changed := false
		for _, o := range a.pts(key(st.Obj)).Slice() {
			if a.pts(key(st.Dst)).AddAll(a.fpts(FieldKey{Obj: o, Field: st.Field})) {
				changed = true
			}
		}
		return changed
	case *ir.Store:
		changed := false
		src := a.pts(key(st.Src))
		for _, o := range a.pts(key(st.Obj)).Slice() {
			if a.fpts(FieldKey{Obj: o, Field: st.Field}).AddAll(src) {
				changed = true
			}
		}
		return changed
	case *ir.StaticLoad:
		return a.pts(key(st.Dst)).AddAll(a.spts(st.Class, st.Field))
	case *ir.StaticStore:
		return a.spts(st.Class, st.Field).AddAll(a.pts(key(st.Src)))
	case *ir.Return:
		if st.Src == "" {
			return false
		}
		return a.pts(key(retVar)).AddAll(a.pts(key(st.Src)))
	case *ir.Invoke:
		return a.invoke(mk, st)
	default:
		return false
	}
}

// invoke handles dispatch, special framework semantics, and call-edge
// recording.
func (a *analyzer) invoke(mk MKey, inv *ir.Invoke) bool {
	key := func(v string) VarKey { return VarKey{M: mk.M, Ctx: mk.Ctx, Var: v} }
	pos := inv.Pos()
	changed := false

	if api, ok := frontend.Recognize(a.cfg.Prog, inv); ok {
		switch api.Kind {
		case frontend.APIFindViewByID:
			if inv.Dst != "" {
				for _, o := range a.viewObjs(mk.M, inv.Args[0]) {
					if a.pts(key(inv.Dst)).Add(o) {
						changed = true
					}
				}
			}
			return changed
		default:
			// Spawning and registration APIs are framework stubs whose
			// effects the OnEvent hook reifies; no body to dispatch into.
			return false
		}
	}
	// Looper accessors return the main looper singleton (background
	// loopers are modelled per-thread by the actions layer).
	if inv.Class == frontend.LooperClass &&
		(inv.Method == frontend.GetMainLooper || inv.Method == frontend.MyLooper) {
		if inv.Dst != "" {
			return a.pts(key(inv.Dst)).Add(MainLooperObj(frontend.LooperClass))
		}
		return false
	}

	site := fmt.Sprintf("%s@%d.%d", mk.M.QualifiedName(), pos.Block, pos.Index)
	switch inv.Kind {
	case ir.InvokeStatic:
		target := a.cfg.Prog.ResolveMethod(inv.Class, inv.Method)
		ctx := a.cfg.Policy.CalleeContext(mk.Ctx, site, inv.Kind, Obj{}, false)
		ctx = a.maybeEnterAction(ctx, pos)
		if a.bindCall(mk, inv, pos, target, ctx, nil) {
			changed = true
		}
	case ir.InvokeSpecial:
		target := a.cfg.Prog.ResolveMethod(inv.Class, inv.Method)
		for _, o := range a.pts(key(inv.Recv)).Slice() {
			o := o
			ctx := a.cfg.Policy.CalleeContext(mk.Ctx, site, inv.Kind, o, true)
			ctx = a.maybeEnterAction(ctx, pos)
			if a.bindCall(mk, inv, pos, target, ctx, &o) {
				changed = true
			}
		}
	default: // virtual
		for _, o := range a.pts(key(inv.Recv)).Slice() {
			o := o
			target := a.cfg.Prog.ResolveMethod(o.Class, inv.Method)
			ctx := a.cfg.Policy.CalleeContext(mk.Ctx, site, inv.Kind, o, true)
			ctx = a.maybeEnterAction(ctx, pos)
			if a.bindCall(mk, inv, pos, target, ctx, &o) {
				changed = true
			}
		}
	}
	return changed
}

// bindCall wires one resolved dispatch target into the call graph: it
// installs the callee instance, records the call edge, flows the
// receiver into the callee's this, and adds the parameter/return copy
// constraints. Reports whether anything new was learned (new instance or
// receiver growth). Shared by both solvers so discovery order and edge
// order are identical.
func (a *analyzer) bindCall(mk MKey, inv *ir.Invoke, pos ir.Pos, target *ir.Method, ctx Context, recv *Obj) bool {
	if target == nil {
		return false
	}
	a.stats.chaTargets++
	changed := false
	calleeKey := MKey{M: target, Ctx: ctx}
	if a.newInstance(calleeKey, false) {
		changed = true
	}
	a.recordEdge(siteKey{Caller: mk, Pos: pos}, calleeKey)
	if recv != nil {
		thisKey := VarKey{M: target, Ctx: ctx, Var: "this"}
		if a.pts(thisKey).Add(*recv) {
			changed = true
			a.touchVar(thisKey)
		}
	}
	n := len(inv.Args)
	if len(target.Params) < n {
		n = len(target.Params)
	}
	for i := 0; i < n; i++ {
		a.addCopy(
			VarKey{M: target, Ctx: ctx, Var: target.Params[i]},
			VarKey{M: mk.M, Ctx: mk.Ctx, Var: inv.Args[i]})
	}
	if inv.Dst != "" {
		a.addCopy(
			VarKey{M: mk.M, Ctx: mk.Ctx, Var: inv.Dst},
			VarKey{M: target, Ctx: ctx, Var: retVar})
	}
	return changed
}

// maybeEnterAction switches the context's action at harness action-entry
// sites (only meaningful under action-sensitive policies).
func (a *analyzer) maybeEnterAction(ctx Context, pos ir.Pos) Context {
	if a.cfg.ActionAt == nil {
		return ctx
	}
	if aid, ok := a.cfg.ActionAt(pos); ok {
		if a.cfg.Policy.ActionSensitive() {
			ctx.Action = aid
		} else {
			ctx.Action = NoAction
		}
	}
	return ctx
}

// viewObjs resolves findViewById's result objects: the views whose ids
// the argument can hold, or every known view when the id is not a
// constant (the sound fallback, precomputed once in Analyze).
func (a *analyzer) viewObjs(m *ir.Method, arg string) []Obj {
	ids := ir.ConstIntDefs(m, arg)
	if len(ids) > 0 {
		var out []Obj
		for _, id := range ids {
			if cls, ok := a.cfg.Views[int(id)]; ok {
				out = append(out, ViewObj(int(id), cls))
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	return a.viewFallback
}

// sortedViewObjs renders the view map as id-sorted view objects — the
// fallback slice viewObjs hands out (callers only iterate it).
func sortedViewObjs(views map[int]string) []Obj {
	keys := make([]int, 0, len(views))
	for id := range views {
		keys = append(keys, id)
	}
	sort.Ints(keys)
	out := make([]Obj, 0, len(keys))
	for _, id := range keys {
		out = append(out, ViewObj(id, views[id]))
	}
	return out
}

func (a *analyzer) recordEdge(sk siteKey, callee MKey) {
	e := calleeEdge{sk: sk, callee: callee}
	if a.calleeSeen[e] {
		return
	}
	a.calleeSeen[e] = true
	a.res.callees[sk] = append(a.res.callees[sk], callee)
}

// applyCopies propagates all persistent copy constraints once, in the
// stable String() order sortedCopies maintains (word-parallel unions;
// no per-sweep sorting or key rendering).
func (a *analyzer) applyCopies() bool {
	changed := false
	for _, e := range a.sortedCopies {
		dst := a.pts(e.dst)
		for _, s := range e.srcs {
			if dst.AddAll(a.pts(s.src)) {
				changed = true
			}
		}
	}
	return changed
}

// applySeeds propagates the cross-context seeds once (over the
// per-method instance index, not the full order).
func (a *analyzer) applySeeds() bool {
	changed := false
	for i := range a.cfg.Seeds {
		if a.applySeed(&a.cfg.Seeds[i]) {
			changed = true
		}
	}
	return changed
}

// applySeed propagates one seed: the union of the source variable across
// every instance of the source method flows into the destination
// variable of every instance of the destination method.
func (a *analyzer) applySeed(seed *Seed) bool {
	var union ObjSet
	for _, mk := range a.res.byMethod[seed.SrcMethod] {
		src := a.res.pts[VarKey{M: mk.M, Ctx: mk.Ctx, Var: seed.SrcVar}]
		if src.Len() == 0 {
			continue
		}
		if union.d == nil {
			union = a.in.NewSet()
		}
		union.AddAll(src)
	}
	if union.d == nil {
		return false
	}
	changed := false
	for _, mk := range a.res.byMethod[seed.DstMethod] {
		k := VarKey{M: mk.M, Ctx: mk.Ctx, Var: seed.DstVar}
		if a.pts(k).AddAll(union) {
			changed = true
			a.touchVar(k)
		}
	}
	return changed
}

// fireEvents re-runs the OnEvent hook over every recognized API call
// site with current points-to information and installs returned entries.
func (a *analyzer) fireEvents() bool {
	if a.cfg.OnEvent == nil {
		return false
	}
	changed := false
	for i := 0; i < len(a.order); i++ {
		mk := a.order[i]
		for _, blk := range mk.M.Blocks {
			for _, s := range blk.Stmts {
				inv, ok := s.(*ir.Invoke)
				if !ok {
					continue
				}
				api, ok := frontend.Recognize(a.cfg.Prog, inv)
				if !ok || api.Kind == frontend.APIFindViewByID || api.Kind == frontend.APISetListener {
					continue
				}
				ev := Event{
					Caller: mk, Pos: inv.Pos(), Inv: inv, API: api,
					FieldObjs: func(o Obj, field string) []Obj {
						return a.fpts(FieldKey{Obj: o, Field: field}).Slice()
					},
				}
				if inv.Recv != "" {
					ev.Recv = a.pts(VarKey{M: mk.M, Ctx: mk.Ctx, Var: inv.Recv}).Slice()
				}
				for _, arg := range inv.Args {
					ev.Args = append(ev.Args, a.pts(VarKey{M: mk.M, Ctx: mk.Ctx, Var: arg}).Slice())
				}
				a.stats.eventsFired++
				for _, e := range a.cfg.OnEvent(ev) {
					if a.install(e, true) {
						changed = true
					}
				}
			}
		}
	}
	return changed
}
