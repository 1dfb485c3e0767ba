package pointer

import (
	"context"
	"slices"
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
	// handleMessage's msg parameter from the sendMessage argument. A src
	// must name a variable of an installed instance (such as the
	// caller of the event that returned the entry); others are ignored.
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

// Solver names a points-to fixpoint strategy.
//
// Deprecated: the difference-propagation solver (delta.go) is the only
// one; Solver and SolverDelta remain for existing callers and select
// nothing.
type Solver string

// SolverDelta names the difference-propagation worklist solver.
//
// Deprecated: see Solver.
const SolverDelta Solver = "delta"

// Config parameterizes Analyze.
type Config struct {
	Prog   *ir.Program
	Policy Policy
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
		cfg:       cfg,
		in:        in,
		res:       newResult(cfg.Policy, in),
		infos:     make(map[*ir.Method]*methodInfo),
		callees:   make(map[calleeKey]calleeVal),
		seedsOf:   make(map[*ir.Method][]int, len(cfg.Seeds)),
		seedSlots: make([][2]int32, len(cfg.Seeds)),
	}
	for i := range cfg.Seeds {
		s := &cfg.Seeds[i]
		a.seedSlots[i] = [2]int32{-1, -1}
		a.seedsOf[s.SrcMethod] = append(a.seedsOf[s.SrcMethod], i)
		if s.DstMethod != s.SrcMethod {
			a.seedsOf[s.DstMethod] = append(a.seedsOf[s.DstMethod], i)
		}
	}
	a.viewFallback = sortedViewObjs(cfg.Views)
	a.d = newDeltaState(a)
	for _, e := range cfg.Entries {
		a.install(e, true)
	}
	return a
}

// fixpoint drives a constructed analyzer to its initial fixpoint: the
// delta solver. The package's tests swap in the exhaustive reference
// (export_test.go) to compare the two through the callers' own hooks.
var fixpoint = (*analyzer).runDelta

// run drives the constructed analyzer to its initial fixpoint.
func (a *analyzer) run() {
	fixpoint(a)
	a.reportObs()
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
	r := a.res
	tr.Count("pointer.passes", int64(r.passes))
	if r.Interrupted {
		tr.Count("pointer.interrupted", 1)
	}
	tr.Count("pointer.worklist_iterations", a.stats.iterations)
	tr.Observe("pointer.solve_iterations", float64(a.stats.iterations))
	tr.Count("pointer.dirty_instances", a.stats.dirtyInstances)
	tr.Count("pointer.transfer_skips", a.stats.transferSkips)
	tr.Count("pointer.delta_props", a.stats.deltaProps)
	tr.Count("pointer.dep_edges", int64(a.d.nDeps))
	tr.Count("pointer.instances", int64(len(r.insts)))
	tr.Count("pointer.entries", int64(len(r.entries)))
	tr.Count("pointer.cha_targets", a.stats.chaTargets)
	tr.Count("pointer.events_fired", a.stats.eventsFired)
	edges := 0
	for _, inst := range r.insts {
		for _, callees := range inst.calls {
			edges += len(callees)
		}
	}
	tr.Count("pointer.call_edges", int64(edges))
	copies := 0
	for _, e := range a.sortedCopies {
		copies += len(e.srcs)
	}
	tr.Count("pointer.copy_constraints", int64(copies))
	var vars, totalObjs, maxSet, words int
	for _, inst := range r.insts {
		for _, set := range inst.vars {
			if set.d == nil {
				continue
			}
			vars++
			n := set.Len()
			totalObjs += n
			if n > maxSet {
				maxSet = n
			}
			words += set.Words()
		}
	}
	for _, f := range r.fsets {
		words += f.set.Words()
	}
	for _, s := range r.ssets {
		words += s.set.Words()
	}
	tr.Count("pointer.objset_words", int64(words))
	tr.Count("pointer.interned_objs", int64(a.in.NumObjs()))
	tr.Gauge("pointer.pts_vars", float64(vars))
	tr.Gauge("pointer.pts_objs", float64(totalObjs))
	tr.Gauge("pointer.pts_max", float64(maxSet))
}

type analyzer struct {
	cfg Config
	in  *Interner
	res *Result
	// infos holds the slot table and layout of every reached method.
	infos  map[*ir.Method]*methodInfo
	nSites int32 // call-site ids handed out by layout
	// callees memoizes call binding per (caller context, call site,
	// receiver): the policy's callee context — already switched at
	// action-entry sites — and the dispatch target. The policy runs once
	// per distinct key, not per visit.
	callees map[calleeKey]calleeVal
	// heap memoizes Policy.HeapCtx per context id.
	heap []heapCtx
	// vs holds each local's solver bookkeeping, per instance and slot.
	vs [][]varState
	// sortedCopies holds the copy edges in rendered-key order (see
	// Result.localName), so
	// applyCopies iterates deterministically without re-sorting.
	sortedCopies []*copyEdge
	// seedsOf lists, per method, the seeds reading or writing it;
	// seedSlots resolves each seed's source and destination variable to
	// a slot once its method is laid out (-1 before).
	seedsOf   map[*ir.Method][]int
	seedSlots [][2]int32
	// viewFallback is the sorted all-views slice viewObjs falls back to
	// for non-constant findViewById arguments, computed once.
	viewFallback []Obj
	// Chunks that set headers, instances, local slots, solver
	// bookkeeping, operand lists and callee lists are carved from.
	sets      []objsetData
	instChunk []instance
	slotChunk []ObjSet
	intChunk  []int32
	vsChunk   []varState
	instIDs   []Inst
	// d holds the difference-propagation state.
	d *deltaState
	// stats feeds the pointer.* observability counters.
	stats struct {
		iterations     int64 // instance sweep slots visited, summed over passes
		chaTargets     int64 // dispatch targets resolved at call sites
		eventsFired    int64 // OnEvent hook invocations
		dirtyInstances int64 // instances actually processed
		transferSkips  int64 // sweep slots skipped (no input grew)
		deltaProps     int64 // dirty statement transfers re-run
	}
}

// calleeKey keys the call-binding memo; recv is the receiver's object
// id, or -1 for a call without one.
type calleeKey struct {
	caller, site, recv int32
}

type calleeVal struct {
	ctx    int32
	target *ir.Method
}

type heapCtx struct {
	s  string
	ok bool
}

// varState is one local's solver bookkeeping.
type varState struct {
	// edge is the copy edge whose destination is the local.
	edge *copyEdge
	// key is the local's rendered name, once a copy edge needed it.
	key string
	// deps and copies head the local's consumer and copy-edge chains
	// (see link).
	deps, copies int32
}

// copyEdge is one destination's persistent copy constraints, its
// sources kept sorted by rendered key.
type copyEdge struct {
	key  string
	dst  local
	srcs []copySrc
	// dirty marks that some source grew since the solver last applied
	// this edge.
	dirty bool
}

type copySrc struct {
	key string
	src local
}

// install registers an entry's method instance and seeds, reporting
// whether anything new was learned.
func (a *analyzer) install(e Entry, isRoot bool) bool {
	if e.Method == nil {
		return false
	}
	id, changed := a.newInstance(e.Method, a.res.ctx.intern(e.Ctx), isRoot)
	mi := a.res.insts[id].info
	this := local{id, mi.this}
	for _, o := range e.This {
		if a.pts(this).Add(o) {
			changed = true
			a.touchVar(this)
		}
	}
	for v, objs := range e.ParamObjs {
		l := local{id, mi.slot(v)}
		for _, o := range objs {
			if a.pts(l).Add(o) {
				changed = true
				a.touchVar(l)
			}
		}
	}
	for v, src := range e.ParamFrom {
		s, ok := a.localOf(src)
		if !ok {
			continue
		}
		dst := local{id, mi.slot(v)}
		if !a.hasCopy(dst, s) {
			a.addCopy(dst, s)
			changed = true
		}
	}
	return changed
}

// localOf resolves a variable key to an installed instance's local.
func (a *analyzer) localOf(k VarKey) (local, bool) {
	id, ok := a.res.Lookup(MKey{M: k.M, Ctx: k.Ctx})
	if !ok {
		return local{}, false
	}
	return local{id, a.res.insts[id].info.slot(k.Var)}, true
}

// newInstance registers a method instance on first sight — the instance
// table, the per-method index, the entry list (for roots), and the
// per-statement dirty bookkeeping — and returns its id and whether it
// was new.
func (a *analyzer) newInstance(m *ir.Method, ctx int32, isRoot bool) (Inst, bool) {
	k := instKey{m, ctx}
	if id, ok := a.res.instIdx[k]; ok {
		return id, false
	}
	mi := a.methodInfo(m)
	id := Inst(len(a.res.insts))
	inst := &carve(&a.instChunk, 1)[0]
	*inst = instance{m: m, ctx: ctx, info: mi, vars: carve(&a.slotChunk, len(mi.names))}
	a.res.insts = append(a.res.insts, inst)
	a.res.instIdx[k] = id
	a.res.byMethod[m] = append(a.res.byMethod[m], id)
	if isRoot {
		a.res.entries = append(a.res.entries, id)
	}
	a.vs = append(a.vs, nil)
	a.d.registerInstance(a, id)
	return id, true
}

// chunkLen is how many elements one chunk allocation holds.
const chunkLen = 256

// carve returns n zeroed elements of capacity n cut from *chunk, which
// it refills when short: one allocation serves many small tables.
// Requests over a quarter chunk get their own array.
func carve[T any](chunk *[]T, n int) []T {
	if n > chunkLen/4 {
		return make([]T, n)
	}
	if len(*chunk) < n {
		*chunk = make([]T, chunkLen)
	}
	out := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	return out
}

// newSet returns an empty set in the analysis's id space.
func (a *analyzer) newSet() ObjSet {
	d := &carve(&a.sets, 1)[0]
	d.in = a.in
	return ObjSet{d: d}
}

// pts returns a local's points-to set, materializing it on first use.
func (a *analyzer) pts(l local) ObjSet {
	inst := a.res.insts[l.inst]
	if int(l.slot) >= len(inst.vars) {
		inst.vars = append(inst.vars, make([]ObjSet, len(inst.info.names)-len(inst.vars))...)
	}
	s := inst.vars[l.slot]
	if s.d == nil {
		s = a.newSet()
		inst.vars[l.slot] = s
	}
	return s
}

// varState returns a local's solver bookkeeping.
func (a *analyzer) varState(l local) *varState {
	vs := a.vs[l.inst]
	if int(l.slot) >= len(vs) {
		n := len(a.res.insts[l.inst].info.names)
		if len(vs) == 0 {
			vs = carve(&a.vsChunk, n)
		} else {
			vs = append(vs, make([]varState, n-len(vs))...)
		}
		a.vs[l.inst] = vs
	}
	return &vs[l.slot]
}

// fieldSet returns the index and set of an object's field,
// materializing it on first use.
func (a *analyzer) fieldSet(obj uint32, field int32) (int32, ObjSet) {
	r := a.res
	k := fieldKey(obj, field)
	if i, ok := r.fieldIdx[k]; ok {
		return i, r.fsets[i].set
	}
	i := int32(len(r.fsets))
	s := a.newSet()
	r.fsets = append(r.fsets, fieldSet{obj: obj, field: field, set: s})
	r.fieldIdx[k] = i
	return i, s
}

// staticSet returns static si's set, materializing it on first use.
func (a *analyzer) staticSet(si int32) ObjSet {
	s := a.res.ssets[si].set
	if s.d == nil {
		s = a.newSet()
		a.res.ssets[si].set = s
	}
	return s
}

// heapCtx returns the policy's heap context for context id ctx.
func (a *analyzer) heapCtx(ctx int32) string {
	for int(ctx) >= len(a.heap) {
		a.heap = append(a.heap, heapCtx{})
	}
	h := &a.heap[ctx]
	if !h.ok {
		*h = heapCtx{s: a.cfg.Policy.HeapCtx(a.res.ctx.ctxs[ctx]), ok: true}
	}
	return h.s
}

// hasCopy reports whether dst ⊆ src is already recorded. Source lists
// are short (a destination's fan-in), so a scan beats a nested map.
func (a *analyzer) hasCopy(dst, src local) bool {
	e := a.varState(dst).edge
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
func (a *analyzer) addCopy(dst, src local) {
	vs := a.varState(dst)
	e := vs.edge
	if e == nil {
		e = a.insertCopyEdge(dst)
		vs.edge = e
	}
	for i := range e.srcs {
		if e.srcs[i].src == src {
			return
		}
	}
	a.insertCopySrc(e, src)
	a.d.registerCopy(a, e, src)
}

// localKey renders a local once, as the copy-edge sort key.
func (a *analyzer) localKey(l local) string {
	vs := a.varState(l)
	if vs.key == "" {
		vs.key = a.res.localName(l)
	}
	return vs.key
}

// insertCopyEdge places a new destination into sortedCopies at its
// rendered-key position, returning the fresh edge. The order fixes the
// copy sweep's order, and with it the pass count.
func (a *analyzer) insertCopyEdge(dst local) *copyEdge {
	key := a.localKey(dst)
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
func (a *analyzer) insertCopySrc(e *copyEdge, src local) {
	skey := a.localKey(src)
	j := sort.Search(len(e.srcs), func(j int) bool {
		return e.srcs[j].key >= skey
	})
	e.srcs = append(e.srcs, copySrc{})
	copy(e.srcs[j+1:], e.srcs[j:])
	e.srcs[j] = copySrc{key: skey, src: src}
}

// sortIDs sorts object ids into the canonical lessObj order of their
// objects.
func sortIDs(ids []int, objs []Obj) {
	slices.SortFunc(ids, func(x, y int) int {
		switch {
		case x == y:
			return 0
		case lessObj(objs[x], objs[y]):
			return -1
		}
		return 1
	})
}

// callee returns the callee context and dispatch target of call site ci
// in inst for receiver object recv (-1 without one), consulting the
// policy only on the first visit of the key.
func (a *analyzer) callee(inst *instance, ci *callInfo, recv int32) calleeVal {
	k := calleeKey{inst.ctx, ci.site, recv}
	if v, ok := a.callees[k]; ok {
		return v
	}
	inv := ci.inv
	var o Obj
	if recv >= 0 {
		o = a.in.snapshot()[recv]
	}
	var target *ir.Method
	if inv.Kind == ir.InvokeStatic || inv.Kind == ir.InvokeSpecial {
		target = a.cfg.Prog.ResolveMethod(inv.Class, inv.Method)
	} else {
		target = a.cfg.Prog.ResolveMethod(o.Class, inv.Method)
	}
	ctx := a.cfg.Policy.CalleeContext(a.res.ctx.ctxs[inst.ctx], inst.info.siteName(ci), inv.Kind, o, recv >= 0)
	ctx = a.maybeEnterAction(ctx, ci.pos)
	v := calleeVal{ctx: a.res.ctx.intern(ctx), target: target}
	a.callees[k] = v
	return v
}

// bindCall wires one resolved dispatch target into the call graph: it
// installs the callee instance, records the call edge, flows the
// receiver object recv (-1 for none) into the callee's this, and adds
// the parameter/return copy constraints. Reports whether anything new
// was learned (new instance or receiver growth). Shared with the
// exhaustive test reference so discovery order and edge order are
// identical.
func (a *analyzer) bindCall(caller Inst, ci *callInfo, cv calleeVal, recv int32) bool {
	if cv.target == nil {
		return false
	}
	a.stats.chaTargets++
	callee, changed := a.newInstance(cv.target, cv.ctx, false)
	a.recordEdge(caller, ci, callee)
	cmi := a.res.insts[callee].info
	if recv >= 0 {
		this := local{callee, cmi.this}
		if a.pts(this).addID(uint32(recv)) {
			changed = true
			a.touchVar(this)
		}
	}
	n := min(len(ci.args), len(cmi.params))
	for i := 0; i < n; i++ {
		a.addCopy(local{callee, cmi.params[i]}, local{caller, ci.args[i]})
	}
	if ci.dst >= 0 {
		a.addCopy(local{caller, ci.dst}, local{callee, cmi.ret})
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

// recordEdge appends callee to the callee list of call site ci of
// caller, once.
func (a *analyzer) recordEdge(caller Inst, ci *callInfo, callee Inst) {
	inst := a.res.insts[caller]
	if int(ci.ord) >= len(inst.calls) {
		calls := make([][]Inst, len(inst.info.calls))
		copy(calls, inst.calls)
		inst.calls = calls
	}
	list := inst.calls[ci.ord]
	for _, c := range list {
		if c == callee {
			return
		}
	}
	if list == nil {
		// Most sites bind one callee.
		list = carve(&a.instIDs, 1)[:0]
	}
	inst.calls[ci.ord] = append(list, callee)
}

// applySeed propagates seed si: the union of the source variable across
// every instance of the source method flows into the destination
// variable of every instance of the destination method.
func (a *analyzer) applySeed(si int) bool {
	seed := &a.cfg.Seeds[si]
	slots := a.seedSlots[si]
	var union ObjSet
	for _, id := range a.res.byMethod[seed.SrcMethod] {
		src := a.res.insts[id].varSet(slots[0])
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
	for _, id := range a.res.byMethod[seed.DstMethod] {
		l := local{id, slots[1]}
		if a.pts(l).AddAll(union) {
			changed = true
			a.touchVar(l)
		}
	}
	return changed
}

// event builds the Event of call site ci in instance id with current
// points-to facts. onField sees the index of every field set a
// FieldObjs call reads.
func (a *analyzer) event(id Inst, ci *callInfo, onField func(fi int32)) Event {
	inst := a.res.insts[id]
	ev := Event{
		Caller: MKey{M: inst.m, Ctx: a.res.ctx.ctxs[inst.ctx]}, Pos: ci.pos, Inv: ci.inv, API: ci.api,
		FieldObjs: func(o Obj, field string) []Obj {
			oid, ok := a.in.lookup(o)
			if !ok {
				return nil
			}
			fi, fs := a.fieldSet(oid, a.res.fieldID(field))
			onField(fi)
			return fs.Slice()
		},
	}
	if ci.inv.Recv != "" {
		ev.Recv = a.pts(local{id, ci.recv}).Slice()
	}
	for _, s := range ci.args {
		ev.Args = append(ev.Args, a.pts(local{id, s}).Slice())
	}
	return ev
}
