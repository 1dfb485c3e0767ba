package pointer

// The difference-propagation worklist solver.
//
// Its pass structure is that of the exhaustive reference fixpoint
// (reference_test.go), which re-runs every statement of every instance
// each pass: instance sweep in discovery order, then copy edges in
// sorted order, then seeds, then events. This solver skips every unit
// of work whose inputs provably did not grow:
//
//   - Each (instance, statement) pair gets a dense id and a dirty bit.
//     A statement re-runs only when marked dirty by a growth of one of
//     its inputs (tracked through consumer lists on every local, field
//     set and static set).
//   - Load/Store are delta-aware inside a single visit too: new base
//     objects (bitset.TakeDelta against a per-statement prev set) are
//     expanded against full field sets, and previously-seen field sets
//     are re-unioned only when their version counter moved.
//   - Virtual/special dispatch resolves targets only for newly-seen
//     receiver objects, sorted into the same canonical object order the
//     reference's full-set walk uses so call edges append identically.
//   - Copy edges carry a dirty flag set when a source grows; seeds are
//     indexed by source local and by method so only affected seeds
//     re-apply; event sites re-fire only when their receiver, arguments,
//     or previously-read field sets grew.
//
// Because a skipped unit of work is exactly one the reference would
// have executed as a no-op (monotone transfer functions with unchanged
// inputs), every observable — points-to contents, instance / entry
// discovery order, callee edge order, interner id assignment, and the
// pass count — is bit-for-bit identical to the reference's.
// solver_parity_test.go and solver_golden_test.go pin this.

import (
	"sierra/internal/bitset"
	"sierra/internal/frontend"
	"sierra/internal/ir"
)

// A consumer list is a chain through deltaState.links, its head the
// newest link's index plus one (0: empty). Chains cost no allocation
// per set: every list of the analysis shares the one growing slice.
type link struct {
	next int32 // the next link's index plus one; 0 ends the chain
	to   int32 // a statement id, or ^id of an event site
}

// copyLink chains the copy edges a local sources, like link.
type copyLink struct {
	next int32
	e    *copyEdge
}

// stmtState is the per-(instance, statement) delta bookkeeping.
type stmtState struct {
	// inst is the instance owning the slot.
	inst Inst
	// init marks that one-time work ran: dependency registration, and
	// for one-shot statements (New, static invoke, findViewById, looper
	// accessors, recognized framework stubs) the whole transfer.
	init bool
	// prev holds the base/receiver ids already expanded (Load, Store,
	// Invoke dispatch).
	prev bitset.Set
	// fields / fvers track, for Load, each seen base's field set index
	// and the field set version last unioned into the destination.
	fields []int32
	fvers  []uint32
	// srcVer is, for Store, the source-set version last written through
	// to every base.
	srcVer uint32
}

// evInstance is one event site instantiated in a method instance.
type evInstance struct {
	inst Inst
	call int32 // the site's ordinal in the instance's methodInfo.calls
	// dead marks a site orphaned by a warm re-slot (warm.go): its
	// instance was re-registered with fresh sites, but stale consumer
	// lists can still re-dirty the old id, so the firing loop must
	// skip-and-clear it forever.
	dead bool
}

type deltaState struct {
	// Dense statement ids: instance i's statements, in block order,
	// occupy [instBase[i], instBase[i]+instLen[i]), where instLen[i] is
	// the statement count of its method at slotting time. instLen must
	// be tracked explicitly: after a warm re-slot (warm.go) instBase is
	// no longer monotone and the method body may already be patched, so
	// neither neighbors nor a fresh NumStmts recovers the old slot
	// extent.
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
	// mid-phase (matching the reference's re-read of the growing table).
	evSites []evInstance

	dirtyStmt bitset.Set
	dirtyInst bitset.Set
	dirtyEv   bitset.Set

	// links and copyLinks hold every consumer chain. The heads of field
	// sets' chains (by field set index) and static sets' (by static id)
	// live here, a local's in its varState.
	links      []link
	copyLinks  []copyLink
	fieldDeps  []int32
	staticDeps []int32
	// evFieldSeen dedups FieldObjs dependencies: field set index << 32
	// | event id.
	evFieldSeen map[uint64]bool

	seedDirty []bool

	dirtyCopies int // count of dirty copy edges
	dirtySeeds  int // count of dirty seeds

	// changed mirrors the reference's per-pass changed flag: set on any
	// set growth or new instance, reset at each pass start.
	changed bool

	scratch []int // reusable id buffer for TakeDelta/AppendBits
	nDeps   int   // registered dependency edges (pointer.dep_edges)
}

func newDeltaState(a *analyzer) *deltaState {
	d := &deltaState{
		evFieldSeen: make(map[uint64]bool),
		seedDirty:   make([]bool, len(a.cfg.Seeds)),
	}
	// All seeds start dirty: the reference applies each one on every
	// pass, so the first delta pass must apply them all.
	for i := range a.cfg.Seeds {
		d.seedDirty[i] = true
		d.dirtySeeds++
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

// registerInstance wires a newly-installed method instance into the
// delta bookkeeping: dense statement ids (all dirty — a new instance
// must run every statement once, as the reference's sweep would), event
// sites with their receiver/argument dependencies, and any seeds
// touching the method.
func (d *deltaState) registerInstance(a *analyzer, id Inst) {
	d.instBase = append(d.instBase, 0)
	d.instLen = append(d.instLen, 0)
	d.slotInstance(a, id)
}

// slotInstance (re)assigns instance id a fresh all-dirty statement-slot
// range at the end of the dense arrays and wires event sites and seeds.
// Shared by install-time registration and the warm re-slot (warm.go),
// which overwrites the instance's old range pointers and leaves the old
// slots orphaned (never scanned: no instBase entry covers them).
func (d *deltaState) slotInstance(a *analyzer, id Inst) {
	d.changed = true
	inst := a.res.insts[id]
	n := len(inst.info.stmts)
	base := d.nStmts
	d.instBase[id] = base
	d.instLen[id] = n
	for sid := base; sid < base+n; sid++ {
		if sid%stmtChunk == 0 {
			d.stmts = append(d.stmts, make([]stmtState, stmtChunk))
		}
		d.stmt(sid).inst = id
		d.dirtyStmt.Add(sid)
	}
	d.nStmts += n
	if n > 0 {
		d.dirtyInst.Add(int(id))
	}
	for _, ord := range inst.info.events {
		eid := len(d.evSites)
		d.evSites = append(d.evSites, evInstance{inst: id, call: ord})
		d.dirtyEv.Add(eid)
		ci := &inst.info.calls[ord]
		if ci.inv.Recv != "" {
			d.dependVarEvent(a, local{id, ci.recv}, eid)
		}
		for _, s := range ci.args {
			d.dependVarEvent(a, local{id, s}, eid)
		}
	}
	for _, si := range inst.info.seedTouch {
		d.dirtySeed(si)
	}
}

// dirtySeed marks seed si for re-application.
func (d *deltaState) dirtySeed(si int32) {
	if !d.seedDirty[si] {
		d.seedDirty[si] = true
		d.dirtySeeds++
	}
}

// registerCopy indexes a new copy edge by its source and marks the edge
// dirty so it applies during this pass's copy phase (the reference
// applies new edges the same pass they appear).
func (d *deltaState) registerCopy(a *analyzer, e *copyEdge, src local) {
	vs := a.varState(src)
	d.copyLinks = append(d.copyLinks, copyLink{next: vs.copies, e: e})
	vs.copies = int32(len(d.copyLinks))
	d.nDeps++
	if !e.dirty {
		e.dirty = true
		d.dirtyCopies++
	}
}

// depend prepends consumer to to the chain at *head.
func (d *deltaState) depend(head *int32, to int32) {
	d.links = append(d.links, link{next: *head, to: to})
	*head = int32(len(d.links))
	d.nDeps++
}

// headAt returns the chain head at index i of heads, growing it.
func headAt(heads *[]int32, i int32) *int32 {
	for int(i) >= len(*heads) {
		*heads = append(*heads, 0)
	}
	return &(*heads)[i]
}

func (d *deltaState) dependVar(a *analyzer, l local, sid int) {
	d.depend(&a.varState(l).deps, int32(sid))
}

func (d *deltaState) dependField(fi int32, sid int) {
	d.depend(headAt(&d.fieldDeps, fi), int32(sid))
}

func (d *deltaState) dependStatic(si int32, sid int) {
	d.depend(headAt(&d.staticDeps, si), int32(sid))
}

func (d *deltaState) dependVarEvent(a *analyzer, l local, eid int) {
	d.depend(&a.varState(l).deps, ^int32(eid))
}

// dependFieldEvent registers a FieldObjs read discovered while firing an
// event (deduped: the same site re-reads the same fields every firing).
func (d *deltaState) dependFieldEvent(fi int32, eid int) {
	k := uint64(fi)<<32 | uint64(eid)
	if d.evFieldSeen[k] {
		return
	}
	d.evFieldSeen[k] = true
	d.depend(headAt(&d.fieldDeps, fi), ^int32(eid))
}

// markConsumers dirties every statement (and its instance) and event
// site on the chain at head.
func (d *deltaState) markConsumers(head int32) {
	for i := head; i != 0; i = d.links[i-1].next {
		if to := d.links[i-1].to; to >= 0 {
			d.dirtyStmt.Add(int(to))
			d.dirtyInst.Add(int(d.stmt(int(to)).inst))
		} else {
			d.dirtyEv.Add(int(^to))
		}
	}
}

// touchVar records that a local's points-to set grew: consumers go
// dirty, copy edges sourced from it go dirty, and seeds reading it (in
// any context of its method) re-apply.
func (a *analyzer) touchVar(l local) {
	d := a.d
	d.changed = true
	if vs := a.vs[l.inst]; int(l.slot) < len(vs) {
		d.markConsumers(vs[l.slot].deps)
		for i := vs[l.slot].copies; i != 0; i = d.copyLinks[i-1].next {
			if e := d.copyLinks[i-1].e; !e.dirty {
				e.dirty = true
				d.dirtyCopies++
			}
		}
	}
	if seeds := a.res.insts[l.inst].info.seedSrc; int(l.slot) < len(seeds) {
		for _, si := range seeds[l.slot] {
			d.dirtySeed(si)
		}
	}
}

// touchField records that an object field's points-to set grew.
func (a *analyzer) touchField(fi int32) {
	d := a.d
	d.changed = true
	if int(fi) < len(d.fieldDeps) {
		d.markConsumers(d.fieldDeps[fi])
	}
}

// touchStatic records that a static field's points-to set grew.
func (a *analyzer) touchStatic(si int32) {
	d := a.d
	d.changed = true
	if int(si) < len(d.staticDeps) {
		d.markConsumers(d.staticDeps[si])
	}
}

// runDelta is the difference-propagation fixpoint. It mirrors the
// reference's pass structure exactly — same phase order, same context
// polling, same per-pass changed semantics — so pass counts and all
// discovery orders match; only provably no-op work is skipped.
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
		for i := 0; i < len(a.res.insts); i++ {
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
			a.processInstanceDelta(Inst(i))
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
func (a *analyzer) processInstanceDelta(id Inst) {
	d := a.d
	inst := a.res.insts[id]
	sid := d.instBase[id]
	k := 0
	for _, blk := range inst.m.Blocks {
		for _, s := range blk.Stmts {
			if d.dirtyStmt.Has(sid) {
				d.dirtyStmt.Clear(sid)
				a.stats.deltaProps++
				a.transferDelta(id, inst, s, &inst.info.stmts[k], sid)
			}
			sid++
			k++
		}
	}
}

// transferDelta is the delta-aware transfer function for statement s,
// laid out as st, in statement slot sid of instance id.
func (a *analyzer) transferDelta(id Inst, inst *instance, s ir.Stmt, st *stmtInfo, sid int) {
	d := a.d
	switch s := s.(type) {
	case *ir.New:
		ss := d.stmt(sid)
		if ss.init {
			return
		}
		ss.init = true
		dst := local{id, st.a}
		o := Obj{Site: s.Site, Ctx: a.heapCtx(inst.ctx), Class: s.Class}
		if a.pts(dst).Add(o) {
			a.touchVar(dst)
		}
	case *ir.Move:
		a.copyDelta(local{id, st.a}, local{id, st.b}, sid)
	case *ir.Load:
		a.loadDelta(id, st, sid)
	case *ir.Store:
		a.storeDelta(id, st, sid)
	case *ir.StaticLoad:
		ss := d.stmt(sid)
		if !ss.init {
			ss.init = true
			d.dependStatic(st.c, sid)
		}
		dst := local{id, st.a}
		if a.pts(dst).AddAll(a.staticSet(st.c)) {
			a.touchVar(dst)
		}
	case *ir.StaticStore:
		ss := d.stmt(sid)
		src := local{id, st.b}
		if !ss.init {
			ss.init = true
			d.dependVar(a, src, sid)
		}
		if a.staticSet(st.c).AddAll(a.pts(src)) {
			a.touchStatic(st.c)
		}
	case *ir.Return:
		if st.b >= 0 {
			a.copyDelta(local{id, st.a}, local{id, st.b}, sid)
		}
	case *ir.Invoke:
		a.invokeDelta(id, inst, &inst.info.calls[st.a], sid)
	}
}

// copyDelta: dst ⊇ src (Move, Return).
func (a *analyzer) copyDelta(dst, src local, sid int) {
	ss := a.d.stmt(sid)
	if !ss.init {
		ss.init = true
		a.d.dependVar(a, src, sid)
	}
	if a.pts(dst).AddAll(a.pts(src)) {
		a.touchVar(dst)
	}
}

// loadDelta: dst ⊇ base.field for every base object. New bases are
// expanded against their full field sets; already-seen field sets are
// re-unioned only when their version moved.
func (a *analyzer) loadDelta(id Inst, st *stmtInfo, sid int) {
	d := a.d
	ss := d.stmt(sid)
	base, dst := local{id, st.b}, local{id, st.a}
	if !ss.init {
		ss.init = true
		d.dependVar(a, base, sid)
	}
	// Snapshot the base delta before any union: when dst aliases base
	// ("x = x.f"), ids added below must wait for the next visit, exactly
	// as the reference's snapshot defers them a pass.
	d.scratch = a.pts(base).takeDelta(&ss.prev, d.scratch[:0])
	if len(ss.fields) == 0 && len(d.scratch) == 0 {
		// No bases at all yet: the reference's loop body would not run,
		// so don't even materialize dst (keeps the set of materialized
		// locals identical).
		return
	}
	dset := a.pts(dst)
	grew := false
	for i, fi := range ss.fields {
		fs := a.res.fsets[fi].set
		if v := fs.version(); v != ss.fvers[i] {
			ss.fvers[i] = v
			if dset.AddAll(fs) {
				grew = true
			}
		}
	}
	for _, o := range d.scratch {
		fi, fs := a.fieldSet(uint32(o), st.c)
		if dset.AddAll(fs) {
			grew = true
		}
		ss.fields = append(ss.fields, fi)
		ss.fvers = append(ss.fvers, fs.version())
		d.dependField(fi, sid)
	}
	if grew {
		a.touchVar(dst)
	}
}

// storeDelta: base.field ⊇ src for every base object. When src grew the
// full source re-stores into every base; otherwise only new bases need
// the union.
func (a *analyzer) storeDelta(id Inst, st *stmtInfo, sid int) {
	d := a.d
	ss := d.stmt(sid)
	base, src := local{id, st.a}, local{id, st.b}
	first := !ss.init
	if first {
		ss.init = true
		d.dependVar(a, base, sid)
		d.dependVar(a, src, sid)
	}
	sset := a.pts(src)
	bset := a.pts(base)
	srcChanged := first || sset.version() != ss.srcVer
	ss.srcVer = sset.version()
	if srcChanged {
		d.scratch = bset.bits().AppendBits(d.scratch[:0])
		ss.prev.CopyFrom(bset.bits())
	} else {
		d.scratch = bset.takeDelta(&ss.prev, d.scratch[:0])
	}
	for _, o := range d.scratch {
		if fi, fs := a.fieldSet(uint32(o), st.c); fs.AddAll(sset) {
			a.touchField(fi)
		}
	}
}

// invokeDelta handles dispatch and framework semantics for call site ci
// of instance id, binding targets only for newly-seen receivers.
func (a *analyzer) invokeDelta(id Inst, inst *instance, ci *callInfo, sid int) {
	d := a.d
	ss := d.stmt(sid)
	if ci.recognized || ci.looper || ci.inv.Kind == ir.InvokeStatic {
		// One-shot: findViewById's effect is a constant (view map and
		// constant args are static), other recognized APIs have no
		// transfer effect (events are handled by the event phase), the
		// looper accessors return a singleton, and a static call's
		// target and callee context are fixed (bindCall is idempotent).
		if ss.init {
			return
		}
		ss.init = true
		switch {
		case ci.recognized:
			if ci.api.Kind == frontend.APIFindViewByID && ci.dst >= 0 {
				dst := local{id, ci.dst}
				for _, o := range a.viewObjs(inst.m, ci.inv.Args[0]) {
					if a.pts(dst).Add(o) {
						a.touchVar(dst)
					}
				}
			}
		case ci.looper:
			if ci.dst >= 0 {
				dst := local{id, ci.dst}
				if a.pts(dst).Add(MainLooperObj(frontend.LooperClass)) {
					a.touchVar(dst)
				}
			}
		default:
			a.bindCall(id, ci, a.callee(inst, ci, -1), -1)
		}
		return
	}

	// Virtual / special dispatch over newly-seen receivers only, sorted
	// into the canonical object order so callee edges append in the same
	// sequence the reference's sorted full-set walk produces.
	recv := local{id, ci.recv}
	if !ss.init {
		ss.init = true
		d.dependVar(a, recv, sid)
	}
	d.scratch = a.pts(recv).takeDelta(&ss.prev, d.scratch[:0])
	if len(d.scratch) == 0 {
		return
	}
	sortIDs(d.scratch, a.in.snapshot())
	for _, o := range d.scratch {
		a.bindCall(id, ci, a.callee(inst, ci, int32(o)), int32(o))
	}
}

// applyCopiesDelta applies only the dirty copy edges, in the same
// sorted order the reference's sweep uses. An edge dirtied behind the
// cursor (by a union during this sweep) stays dirty for the next pass —
// the same one-sweep-per-pass semantics the reference has.
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
		a.applySeed(i)
	}
}

// fireEventsDelta re-fires only the dirty event sites. The forward
// cursor re-reads the growing site list so sites of instances installed
// by earlier firings fire within the same phase, exactly like the
// reference's loop re-reading the growing instance table.
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
		ei := d.evSites[eid]
		if ei.dead {
			continue // orphaned by a warm re-slot; see evInstance.dead
		}
		// FieldObjs reads register (deduped) field→event dependencies so
		// field growth re-fires the site later.
		ev := a.event(ei.inst, &a.res.insts[ei.inst].info.calls[ei.call], func(fi int32) {
			d.dependFieldEvent(fi, eid)
		})
		a.stats.eventsFired++
		for _, e := range a.cfg.OnEvent(ev) {
			if a.install(e, true) {
				d.changed = true
			}
		}
	}
}
