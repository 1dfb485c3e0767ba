package pointer

// The difference-propagation worklist solver (SolverDelta).
//
// The exhaustive solver re-runs every statement of every instance each
// pass even when nothing the statement reads has changed; on large apps
// almost all of that work is no-op set unions. This solver keeps the
// exhaustive pass structure — instance sweep in discovery order, then
// copy edges in sorted order, then seeds, then events — but skips every
// unit of work whose inputs provably did not grow:
//
//   - Each (instance, statement) pair gets a dense id and a dirty bit.
//     A statement re-runs only when marked dirty by a growth of one of
//     its inputs (tracked through a dependency index from VarKey /
//     FieldKey / static-key to consuming statements).
//   - Load/Store are delta-aware inside a single visit too: new base
//     objects (bitset.TakeDelta against a per-statement prev set) are
//     expanded against full field sets, and previously-seen field sets
//     are re-unioned only when their version counter moved.
//   - Virtual/special dispatch resolves targets only for newly-seen
//     receiver objects, sorted into the same canonical object order the
//     exhaustive Slice() walk uses so call edges append identically.
//   - Copy edges carry a dirty flag set when a source grows; seeds are
//     indexed by source (method, var) and by method so only affected
//     seeds re-apply; event sites re-fire only when their receiver,
//     arguments, or previously-read field sets grew.
//
// Because a skipped unit of work is exactly one the exhaustive solver
// would have executed as a no-op (monotone transfer functions with
// unchanged inputs), every observable — points-to contents, instance /
// entry discovery order, callee edge order, interner id assignment, and
// the pass count — is bit-for-bit identical across the two solvers.
// solver_parity_test.go and the metrics golden test pin this.

import (
	"fmt"

	"sierra/internal/bitset"
	"sierra/internal/frontend"
	"sierra/internal/ir"
)

// consumers lists the dense statement ids and event-site ids that read a
// points-to key.
type consumers struct {
	stmts  []int
	events []int
}

// stmtState is the per-(instance, statement) delta bookkeeping.
type stmtState struct {
	// inst is the index (into analyzer.order) of the instance owning
	// the slot.
	inst int
	// init marks that one-time work ran: dependency registration, and
	// for one-shot statements (New, static invoke, findViewById, looper
	// accessors, recognized framework stubs) the whole transfer.
	init bool
	// prev holds the base/receiver ids already expanded (Load, Store,
	// Invoke dispatch).
	prev bitset.Set
	// fields / fvers track, for Load, each seen base's field key and the
	// field set version last unioned into the destination.
	fields []FieldKey
	fvers  []uint32
	// srcVer is, for Store, the source-set version last written through
	// to every base.
	srcVer uint32
}

// evSite is a recognized event-firing API call inside a method body.
type evSite struct {
	inv *ir.Invoke
	api frontend.APICall
}

// evInstance is one event site instantiated in a method instance.
type evInstance struct {
	inst int // index into analyzer.order
	site evSite
	// dead marks a site orphaned by a warm re-slot (warm.go): its
	// instance was re-registered with fresh sites, but stale dependency
	// consumer lists can still re-dirty the old id, so the firing loop
	// must skip-and-clear it forever.
	dead bool
}

// seedVar keys the seed-source index: any growth of (method, var) under
// any context re-dirties the seeds reading it.
type seedVar struct {
	M *ir.Method
	V string
}

// evFieldDep dedups dynamic FieldObjs dependency registration.
type evFieldDep struct {
	fk FieldKey
	ev int
}

type deltaState struct {
	// Per-method caches: flattened statement lists (block order, the
	// order processInstance visits) and recognized event sites.
	stmtsOf  map[*ir.Method][]ir.Stmt
	eventsOf map[*ir.Method][]evSite

	// Dense statement ids: instance i's statements occupy
	// [instBase[i], instBase[i]+instLen[i]), where instLen[i] is the
	// statement count of order[i].M at slotting time. instLen must be
	// tracked explicitly: after a warm re-slot (warm.go) instBase is no
	// longer monotone and the method body may already be patched, so
	// neither neighbors nor a fresh len(methodStmts) recovers the old
	// slot extent.
	instBase []int
	instLen  []int
	// stmts holds the slots in chunks of stmtChunk (see stmt), so that
	// growing with discovered instances never copies the slots already
	// allocated or leaves them behind as garbage; nStmts counts the
	// slots in use.
	stmts  [][]stmtState
	nStmts int

	// Flattened event-site instances, appended at install time so the
	// event phase's forward cursor reaches sites of instances installed
	// mid-phase (matching the exhaustive re-read of the growing order).
	evSites []evInstance

	dirtyStmt bitset.Set
	dirtyInst bitset.Set
	dirtyEv   bitset.Set

	// The dependency index: key -> consumers.
	varDeps     map[VarKey]*consumers
	fieldDeps   map[FieldKey]*consumers
	staticDeps  map[string]*consumers
	copyIndex   map[VarKey][]*copyEdge
	evFieldSeen map[evFieldDep]bool

	seedSrc   map[seedVar][]int
	seedByM   map[*ir.Method][]int
	seedDirty []bool

	dirtyCopies int // count of dirty copy edges
	dirtySeeds  int // count of dirty seeds

	// changed mirrors the exhaustive solver's per-pass changed flag: set
	// on any set growth or new instance, reset at each pass start.
	changed bool

	scratch []int // reusable id buffer for TakeDelta/AppendBits
	nDeps   int   // registered dependency edges (pointer.dep_edges)
}

func newDeltaState(a *analyzer) *deltaState {
	d := &deltaState{
		stmtsOf:     make(map[*ir.Method][]ir.Stmt),
		eventsOf:    make(map[*ir.Method][]evSite),
		varDeps:     make(map[VarKey]*consumers),
		fieldDeps:   make(map[FieldKey]*consumers),
		staticDeps:  make(map[string]*consumers),
		copyIndex:   make(map[VarKey][]*copyEdge),
		evFieldSeen: make(map[evFieldDep]bool),
		seedSrc:     make(map[seedVar][]int, len(a.cfg.Seeds)),
		seedByM:     make(map[*ir.Method][]int, len(a.cfg.Seeds)),
		seedDirty:   make([]bool, len(a.cfg.Seeds)),
	}
	for i := range a.cfg.Seeds {
		s := &a.cfg.Seeds[i]
		// All seeds start dirty: the exhaustive solver applies each one
		// on every pass, so the first delta pass must apply them all.
		d.seedDirty[i] = true
		d.dirtySeeds++
		sv := seedVar{M: s.SrcMethod, V: s.SrcVar}
		d.seedSrc[sv] = append(d.seedSrc[sv], i)
		d.seedByM[s.SrcMethod] = append(d.seedByM[s.SrcMethod], i)
		if s.DstMethod != s.SrcMethod {
			d.seedByM[s.DstMethod] = append(d.seedByM[s.DstMethod], i)
		}
		d.nDeps += 2
	}
	return d
}

// stmtChunk is the number of statement slots per chunk of
// deltaState.stmts.
const stmtChunk = 256

// stmt returns statement slot sid. Chunks never move, so the pointer
// stays valid while instances are installed.
func (d *deltaState) stmt(sid int) *stmtState {
	return &d.stmts[uint(sid)/stmtChunk][uint(sid)%stmtChunk]
}

// depEdges reports how many dependency edges the solver registered.
func (d *deltaState) depEdges() int { return d.nDeps }

// methodStmts returns m's statements flattened in block order (cached).
func (d *deltaState) methodStmts(m *ir.Method) []ir.Stmt {
	if s, ok := d.stmtsOf[m]; ok {
		return s
	}
	n := 0
	for _, blk := range m.Blocks {
		n += len(blk.Stmts)
	}
	out := make([]ir.Stmt, 0, n)
	for _, blk := range m.Blocks {
		out = append(out, blk.Stmts...)
	}
	d.stmtsOf[m] = out
	return out
}

// methodEvents returns m's event-firing API sites (cached): recognized
// calls other than findViewById and listener registration, exactly the
// filter the exhaustive fireEvents applies.
func (d *deltaState) methodEvents(a *analyzer, m *ir.Method) []evSite {
	if s, ok := d.eventsOf[m]; ok {
		return s
	}
	var out []evSite
	for _, s := range d.methodStmts(m) {
		inv, ok := s.(*ir.Invoke)
		if !ok {
			continue
		}
		api, ok := frontend.Recognize(a.cfg.Prog, inv)
		if !ok || api.Kind == frontend.APIFindViewByID || api.Kind == frontend.APISetListener {
			continue
		}
		out = append(out, evSite{inv: inv, api: api})
	}
	d.eventsOf[m] = out
	return out
}

// registerInstance wires a newly-installed method instance into the
// delta bookkeeping: dense statement ids (all dirty — a new instance
// must run every statement once, as the exhaustive sweep would), event
// sites with their receiver/argument dependencies, and any seeds
// touching the method.
func (d *deltaState) registerInstance(a *analyzer, idx int, mk MKey) {
	d.instBase = append(d.instBase, 0)
	d.instLen = append(d.instLen, 0)
	d.slotInstance(a, idx, mk)
}

// slotInstance (re)assigns instance idx a fresh all-dirty statement-slot
// range at the end of the dense arrays and wires event sites and seeds.
// Shared by install-time registration and the warm re-slot (warm.go),
// which overwrites the instance's old range pointers and leaves the old
// slots orphaned (never scanned: no instBase entry covers them).
func (d *deltaState) slotInstance(a *analyzer, idx int, mk MKey) {
	d.changed = true
	stmts := d.methodStmts(mk.M)
	base := d.nStmts
	d.instBase[idx] = base
	d.instLen[idx] = len(stmts)
	for sid := base; sid < base+len(stmts); sid++ {
		if sid%stmtChunk == 0 {
			d.stmts = append(d.stmts, make([]stmtState, stmtChunk))
		}
		d.stmt(sid).inst = idx
		d.dirtyStmt.Add(sid)
	}
	d.nStmts += len(stmts)
	if len(stmts) > 0 {
		d.dirtyInst.Add(idx)
	}
	if a.cfg.OnEvent != nil {
		for _, es := range d.methodEvents(a, mk.M) {
			eid := len(d.evSites)
			d.evSites = append(d.evSites, evInstance{inst: idx, site: es})
			d.dirtyEv.Add(eid)
			if es.inv.Recv != "" {
				d.dependVarEvent(VarKey{M: mk.M, Ctx: mk.Ctx, Var: es.inv.Recv}, eid)
			}
			for _, arg := range es.inv.Args {
				d.dependVarEvent(VarKey{M: mk.M, Ctx: mk.Ctx, Var: arg}, eid)
			}
		}
	}
	for _, si := range d.seedByM[mk.M] {
		if !d.seedDirty[si] {
			d.seedDirty[si] = true
			d.dirtySeeds++
		}
	}
}

// registerCopy indexes a new copy edge by its source and marks the edge
// dirty so it applies during this pass's copy phase (the exhaustive
// solver applies new edges the same pass they appear).
func (d *deltaState) registerCopy(e *copyEdge, src VarKey) {
	d.copyIndex[src] = append(d.copyIndex[src], e)
	d.nDeps++
	if !e.dirty {
		e.dirty = true
		d.dirtyCopies++
	}
}

func (d *deltaState) varCons(k VarKey) *consumers {
	c := d.varDeps[k]
	if c == nil {
		c = &consumers{}
		d.varDeps[k] = c
	}
	return c
}

func (d *deltaState) fieldCons(k FieldKey) *consumers {
	c := d.fieldDeps[k]
	if c == nil {
		c = &consumers{}
		d.fieldDeps[k] = c
	}
	return c
}

func (d *deltaState) staticCons(key string) *consumers {
	c := d.staticDeps[key]
	if c == nil {
		c = &consumers{}
		d.staticDeps[key] = c
	}
	return c
}

func (d *deltaState) dependVar(k VarKey, sid int) {
	c := d.varCons(k)
	c.stmts = append(c.stmts, sid)
	d.nDeps++
}

func (d *deltaState) dependField(k FieldKey, sid int) {
	c := d.fieldCons(k)
	c.stmts = append(c.stmts, sid)
	d.nDeps++
}

func (d *deltaState) dependStatic(key string, sid int) {
	c := d.staticCons(key)
	c.stmts = append(c.stmts, sid)
	d.nDeps++
}

func (d *deltaState) dependVarEvent(k VarKey, eid int) {
	c := d.varCons(k)
	c.events = append(c.events, eid)
	d.nDeps++
}

// dependFieldEvent registers a FieldObjs read discovered while firing an
// event (deduped: the same site re-reads the same fields every firing).
func (d *deltaState) dependFieldEvent(fk FieldKey, eid int) {
	dep := evFieldDep{fk: fk, ev: eid}
	if d.evFieldSeen[dep] {
		return
	}
	d.evFieldSeen[dep] = true
	c := d.fieldCons(fk)
	c.events = append(c.events, eid)
	d.nDeps++
}

// markConsumers dirties every statement (and its instance) and event
// site reading a grown key.
func (d *deltaState) markConsumers(c *consumers) {
	for _, sid := range c.stmts {
		d.dirtyStmt.Add(sid)
		d.dirtyInst.Add(d.stmt(sid).inst)
	}
	for _, eid := range c.events {
		d.dirtyEv.Add(eid)
	}
}

// touchVar records that a variable's points-to set grew: consumers go
// dirty, copy edges sourced from it go dirty, and seeds reading it
// re-apply.
func (d *deltaState) touchVar(k VarKey) {
	d.changed = true
	if c := d.varDeps[k]; c != nil {
		d.markConsumers(c)
	}
	for _, e := range d.copyIndex[k] {
		if !e.dirty {
			e.dirty = true
			d.dirtyCopies++
		}
	}
	if idxs := d.seedSrc[seedVar{M: k.M, V: k.Var}]; len(idxs) > 0 {
		for _, si := range idxs {
			if !d.seedDirty[si] {
				d.seedDirty[si] = true
				d.dirtySeeds++
			}
		}
	}
}

// touchField records that an object field's points-to set grew.
func (d *deltaState) touchField(k FieldKey) {
	d.changed = true
	if c := d.fieldDeps[k]; c != nil {
		d.markConsumers(c)
	}
}

// touchStatic records that a static field's points-to set grew.
func (d *deltaState) touchStatic(key string) {
	d.changed = true
	if c := d.staticDeps[key]; c != nil {
		d.markConsumers(c)
	}
}

// runDelta is the difference-propagation fixpoint. It mirrors
// runExhaustive's pass structure exactly — same phase order, same
// context polling, same per-pass changed semantics — so pass counts and
// all discovery orders match; only provably no-op work is skipped.
func (a *analyzer) runDelta() {
	cfg := a.cfg
	d := a.d
	for pass := 0; pass < cfg.MaxPasses; pass++ {
		if ctxDone(cfg.Ctx) {
			a.res.Interrupted = true
			break
		}
		a.res.passes = pass + 1
		d.changed = false
		for i := 0; i < len(a.order); i++ {
			if i%ctxStride == ctxStride-1 && ctxDone(cfg.Ctx) {
				a.res.Interrupted = true
				break
			}
			// iterations stays solver-invariant (the sweep visits every
			// slot); the delta-specific effort shows up in
			// dirty_instances / transfer_skips / delta_props instead.
			a.stats.iterations++
			if !d.dirtyInst.Has(i) {
				a.stats.transferSkips++
				continue
			}
			d.dirtyInst.Clear(i)
			a.stats.dirtyInstances++
			a.processInstanceDelta(i)
		}
		if a.res.Interrupted {
			break
		}
		a.applyCopiesDelta()
		a.applySeedsDelta()
		a.fireEventsDelta()
		if !d.changed {
			break
		}
	}
}

// processInstanceDelta re-runs the dirty statements of one instance, in
// statement order.
func (a *analyzer) processInstanceDelta(idx int) {
	d := a.d
	mk := a.order[idx]
	base := d.instBase[idx]
	for si, s := range d.methodStmts(mk.M) {
		sid := base + si
		if !d.dirtyStmt.Has(sid) {
			continue
		}
		d.dirtyStmt.Clear(sid)
		a.stats.deltaProps++
		a.transferDelta(mk, s, sid)
	}
}

// transferDelta is the delta-aware transfer function.
func (a *analyzer) transferDelta(mk MKey, s ir.Stmt, sid int) {
	d := a.d
	key := func(v string) VarKey { return VarKey{M: mk.M, Ctx: mk.Ctx, Var: v} }
	switch stm := s.(type) {
	case *ir.New:
		st := d.stmt(sid)
		if st.init {
			return
		}
		st.init = true
		k := key(stm.Dst)
		o := Obj{Site: stm.Site, Ctx: a.cfg.Policy.HeapCtx(mk.Ctx), Class: stm.Class}
		if a.pts(k).Add(o) {
			a.touchVar(k)
		}
	case *ir.Move:
		st := d.stmt(sid)
		sk := key(stm.Src)
		if !st.init {
			st.init = true
			d.dependVar(sk, sid)
		}
		dk := key(stm.Dst)
		if a.pts(dk).AddAll(a.pts(sk)) {
			a.touchVar(dk)
		}
	case *ir.Load:
		a.loadDelta(mk, stm, sid)
	case *ir.Store:
		a.storeDelta(mk, stm, sid)
	case *ir.StaticLoad:
		st := d.stmt(sid)
		if !st.init {
			st.init = true
			d.dependStatic(stm.Class+"."+stm.Field, sid)
		}
		dk := key(stm.Dst)
		if a.pts(dk).AddAll(a.spts(stm.Class, stm.Field)) {
			a.touchVar(dk)
		}
	case *ir.StaticStore:
		st := d.stmt(sid)
		sk := key(stm.Src)
		if !st.init {
			st.init = true
			d.dependVar(sk, sid)
		}
		if a.spts(stm.Class, stm.Field).AddAll(a.pts(sk)) {
			a.touchStatic(stm.Class + "." + stm.Field)
		}
	case *ir.Return:
		if stm.Src == "" {
			return
		}
		st := d.stmt(sid)
		sk := key(stm.Src)
		if !st.init {
			st.init = true
			d.dependVar(sk, sid)
		}
		dk := key(retVar)
		if a.pts(dk).AddAll(a.pts(sk)) {
			a.touchVar(dk)
		}
	case *ir.Invoke:
		a.invokeDelta(mk, stm, sid)
	}
}

// loadDelta: dst ⊇ base.field for every base object. New bases are
// expanded against their full field sets; already-seen field sets are
// re-unioned only when their version moved.
func (a *analyzer) loadDelta(mk MKey, stm *ir.Load, sid int) {
	d := a.d
	st := d.stmt(sid)
	bk := VarKey{M: mk.M, Ctx: mk.Ctx, Var: stm.Obj}
	dk := VarKey{M: mk.M, Ctx: mk.Ctx, Var: stm.Dst}
	if !st.init {
		st.init = true
		d.dependVar(bk, sid)
	}
	// Snapshot the base delta before any union: when dst aliases base
	// ("x = x.f"), ids added below must wait for the next visit, exactly
	// as the exhaustive Slice() snapshot defers them a pass.
	d.scratch = a.pts(bk).takeDelta(&st.prev, d.scratch[:0])
	if len(st.fields) == 0 && len(d.scratch) == 0 {
		// No bases at all yet: the exhaustive loop body would not run,
		// so don't even materialize dst (keeps res.pts keys identical).
		return
	}
	dst := a.pts(dk)
	grew := false
	for i, fk := range st.fields {
		fs := a.fpts(fk)
		if v := fs.version(); v != st.fvers[i] {
			st.fvers[i] = v
			if dst.AddAll(fs) {
				grew = true
			}
		}
	}
	if len(d.scratch) > 0 {
		objs := a.in.snapshot()
		for _, id := range d.scratch {
			fk := FieldKey{Obj: objs[id], Field: stm.Field}
			fs := a.fpts(fk)
			if dst.AddAll(fs) {
				grew = true
			}
			st.fields = append(st.fields, fk)
			st.fvers = append(st.fvers, fs.version())
			d.dependField(fk, sid)
		}
	}
	if grew {
		a.touchVar(dk)
	}
}

// storeDelta: base.field ⊇ src for every base object. When src grew the
// full source re-stores into every base; otherwise only new bases need
// the union.
func (a *analyzer) storeDelta(mk MKey, stm *ir.Store, sid int) {
	d := a.d
	st := d.stmt(sid)
	bk := VarKey{M: mk.M, Ctx: mk.Ctx, Var: stm.Obj}
	sk := VarKey{M: mk.M, Ctx: mk.Ctx, Var: stm.Src}
	first := !st.init
	if first {
		st.init = true
		d.dependVar(bk, sid)
		d.dependVar(sk, sid)
	}
	src := a.pts(sk)
	base := a.pts(bk)
	srcChanged := first || src.version() != st.srcVer
	st.srcVer = src.version()
	if srcChanged {
		d.scratch = base.bits().AppendBits(d.scratch[:0])
		st.prev.CopyFrom(base.bits())
	} else {
		d.scratch = base.takeDelta(&st.prev, d.scratch[:0])
	}
	if len(d.scratch) == 0 {
		return
	}
	objs := a.in.snapshot()
	for _, id := range d.scratch {
		fk := FieldKey{Obj: objs[id], Field: stm.Field}
		if a.fpts(fk).AddAll(src) {
			a.touchField(fk)
		}
	}
}

// invokeDelta handles dispatch and framework semantics, binding targets
// only for newly-seen receivers.
func (a *analyzer) invokeDelta(mk MKey, inv *ir.Invoke, sid int) {
	d := a.d
	key := func(v string) VarKey { return VarKey{M: mk.M, Ctx: mk.Ctx, Var: v} }
	pos := inv.Pos()

	if api, ok := frontend.Recognize(a.cfg.Prog, inv); ok {
		// Framework stubs: findViewById's effect is a one-shot constant
		// (view map and constant args are static); other recognized APIs
		// have no transfer effect (events are handled by the event
		// phase).
		st := d.stmt(sid)
		if st.init {
			return
		}
		st.init = true
		if api.Kind == frontend.APIFindViewByID && inv.Dst != "" {
			dk := key(inv.Dst)
			for _, o := range a.viewObjs(mk.M, inv.Args[0]) {
				if a.pts(dk).Add(o) {
					a.touchVar(dk)
				}
			}
		}
		return
	}
	if inv.Class == frontend.LooperClass &&
		(inv.Method == frontend.GetMainLooper || inv.Method == frontend.MyLooper) {
		st := d.stmt(sid)
		if st.init {
			return
		}
		st.init = true
		if inv.Dst != "" {
			dk := key(inv.Dst)
			if a.pts(dk).Add(MainLooperObj(frontend.LooperClass)) {
				a.touchVar(dk)
			}
		}
		return
	}

	site := fmt.Sprintf("%s@%d.%d", mk.M.QualifiedName(), pos.Block, pos.Index)
	if inv.Kind == ir.InvokeStatic {
		// One-shot: the target and callee context are static, and
		// bindCall is idempotent.
		st := d.stmt(sid)
		if st.init {
			return
		}
		st.init = true
		target := a.cfg.Prog.ResolveMethod(inv.Class, inv.Method)
		ctx := a.cfg.Policy.CalleeContext(mk.Ctx, site, inv.Kind, Obj{}, false)
		ctx = a.maybeEnterAction(ctx, pos)
		a.bindCall(mk, inv, pos, target, ctx, nil)
		return
	}

	// Virtual / special dispatch over newly-seen receivers only, sorted
	// into the canonical object order so callee edges append in the same
	// sequence the exhaustive sorted full-set walk produces.
	st := d.stmt(sid)
	rk := key(inv.Recv)
	if !st.init {
		st.init = true
		d.dependVar(rk, sid)
	}
	d.scratch = a.pts(rk).takeDelta(&st.prev, d.scratch[:0])
	if len(d.scratch) == 0 {
		return
	}
	objs := a.in.snapshot()
	recvs := make([]Obj, 0, len(d.scratch))
	for _, id := range d.scratch {
		recvs = append(recvs, objs[id])
	}
	sortObjs(recvs)
	for i := range recvs {
		o := recvs[i]
		var target *ir.Method
		if inv.Kind == ir.InvokeSpecial {
			target = a.cfg.Prog.ResolveMethod(inv.Class, inv.Method)
		} else {
			target = a.cfg.Prog.ResolveMethod(o.Class, inv.Method)
		}
		ctx := a.cfg.Policy.CalleeContext(mk.Ctx, site, inv.Kind, o, true)
		ctx = a.maybeEnterAction(ctx, pos)
		a.bindCall(mk, inv, pos, target, ctx, &o)
	}
}

// applyCopiesDelta applies only the dirty copy edges, in the same
// sorted order the exhaustive sweep uses. An edge dirtied behind the
// cursor (by a union during this sweep) stays dirty for the next pass —
// the same one-sweep-per-pass semantics the exhaustive solver has.
func (a *analyzer) applyCopiesDelta() {
	d := a.d
	if d.dirtyCopies == 0 {
		return
	}
	for _, e := range a.sortedCopies {
		if !e.dirty {
			continue
		}
		e.dirty = false
		d.dirtyCopies--
		dst := a.pts(e.dst)
		for _, s := range e.srcs {
			if dst.AddAll(a.pts(s.src)) {
				a.touchVar(e.dst)
			}
		}
	}
}

// applySeedsDelta re-applies only the seeds whose sources grew or whose
// methods gained instances, in seed order.
func (a *analyzer) applySeedsDelta() {
	d := a.d
	if d.dirtySeeds == 0 {
		return
	}
	for i := range a.cfg.Seeds {
		if !d.seedDirty[i] {
			continue
		}
		d.seedDirty[i] = false
		d.dirtySeeds--
		a.applySeed(&a.cfg.Seeds[i])
	}
}

// fireEventsDelta re-fires only the dirty event sites. The forward
// cursor re-reads the growing site list so sites of instances installed
// by earlier firings fire within the same phase, exactly like the
// exhaustive loop re-reading len(a.order).
func (a *analyzer) fireEventsDelta() {
	if a.cfg.OnEvent == nil {
		return
	}
	d := a.d
	for eid := 0; eid < len(d.evSites); eid++ {
		if !d.dirtyEv.Has(eid) {
			continue
		}
		d.dirtyEv.Clear(eid)
		if d.evSites[eid].dead {
			continue // orphaned by a warm re-slot; see evInstance.dead
		}
		a.fireEventDelta(eid)
	}
}

// fireEventDelta fires one event site with current points-to facts and
// installs any returned entries. FieldObjs reads register (deduped)
// field→event dependencies so field growth re-fires the site later.
func (a *analyzer) fireEventDelta(eid int) {
	d := a.d
	ei := d.evSites[eid]
	mk := a.order[ei.inst]
	inv := ei.site.inv
	ev := Event{
		Caller: mk, Pos: inv.Pos(), Inv: inv, API: ei.site.api,
		FieldObjs: func(o Obj, field string) []Obj {
			fk := FieldKey{Obj: o, Field: field}
			d.dependFieldEvent(fk, eid)
			return a.fpts(fk).Slice()
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
			d.changed = true
		}
	}
}
