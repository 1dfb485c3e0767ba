package pointer

// The exhaustive reference fixpoint: every pass re-runs every statement
// of every discovered instance, then every copy edge, seed and event
// site. It is the parity oracle the delta solver (delta.go) is held to
// bit for bit — same points-to sets, discovery and edge orders, interner
// order and pass count — by solver_parity_test.go and
// solver_golden_test.go. It shares the analyzer's bookkeeping; the delta
// state it also feeds is never drained.

import (
	"sierra/internal/frontend"
	"sierra/internal/ir"
)

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
		// table only grows, and growth order is deterministic).
		for i := 0; i < len(a.res.insts); i++ {
			if i%ctxStride == ctxStride-1 && ctxDone(cfg.Ctx) {
				a.res.Interrupted = true
				break
			}
			a.stats.iterations++
			if a.processInstance(Inst(i)) {
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

// processInstance applies all statement transfer functions of one method
// instance, returning whether any points-to set grew.
func (a *analyzer) processInstance(id Inst) bool {
	inst := a.res.insts[id]
	changed := false
	k := 0
	for _, blk := range inst.m.Blocks {
		for _, s := range blk.Stmts {
			if a.transfer(id, inst, s, &inst.info.stmts[k]) {
				changed = true
			}
			k++
		}
	}
	return changed
}

// transfer applies statement s, laid out as st, in instance id.
func (a *analyzer) transfer(id Inst, inst *instance, s ir.Stmt, st *stmtInfo) bool {
	switch s := s.(type) {
	case *ir.New:
		o := Obj{Site: s.Site, Ctx: a.heapCtx(inst.ctx), Class: s.Class}
		return a.pts(local{id, st.a}).Add(o)
	case *ir.Move:
		return a.pts(local{id, st.a}).AddAll(a.pts(local{id, st.b}))
	case *ir.Load:
		changed := false
		// Snapshot the bases: when dst is the base ("x = x.f") objects
		// added below wait for the next pass.
		for _, o := range a.pts(local{id, st.b}).AppendIDs(nil) {
			if _, fs := a.fieldSet(uint32(o), st.c); a.pts(local{id, st.a}).AddAll(fs) {
				changed = true
			}
		}
		return changed
	case *ir.Store:
		changed := false
		src := a.pts(local{id, st.b})
		for _, o := range a.pts(local{id, st.a}).AppendIDs(nil) {
			if _, fs := a.fieldSet(uint32(o), st.c); fs.AddAll(src) {
				changed = true
			}
		}
		return changed
	case *ir.StaticLoad:
		return a.pts(local{id, st.a}).AddAll(a.staticSet(st.c))
	case *ir.StaticStore:
		return a.staticSet(st.c).AddAll(a.pts(local{id, st.b}))
	case *ir.Return:
		if st.b < 0 {
			return false
		}
		return a.pts(local{id, st.a}).AddAll(a.pts(local{id, st.b}))
	case *ir.Invoke:
		return a.invoke(id, inst, &inst.info.calls[st.a])
	default:
		return false
	}
}

// invoke handles dispatch, special framework semantics, and call-edge
// recording for call site ci of instance id.
func (a *analyzer) invoke(id Inst, inst *instance, ci *callInfo) bool {
	changed := false
	if ci.recognized {
		// Spawning and registration APIs are framework stubs whose
		// effects the OnEvent hook reifies; no body to dispatch into.
		if ci.api.Kind == frontend.APIFindViewByID && ci.dst >= 0 {
			for _, o := range a.viewObjs(inst.m, ci.inv.Args[0]) {
				if a.pts(local{id, ci.dst}).Add(o) {
					changed = true
				}
			}
		}
		return changed
	}
	// Looper accessors return the main looper singleton (background
	// loopers are modelled per-thread by the actions layer).
	if ci.looper {
		if ci.dst >= 0 {
			return a.pts(local{id, ci.dst}).Add(MainLooperObj(frontend.LooperClass))
		}
		return false
	}
	if ci.inv.Kind == ir.InvokeStatic {
		return a.bindCall(id, ci, a.callee(inst, ci, -1), -1)
	}
	recvs := a.pts(local{id, ci.recv}).AppendIDs(nil)
	sortIDs(recvs, a.in.snapshot())
	for _, o := range recvs {
		if a.bindCall(id, ci, a.callee(inst, ci, int32(o)), int32(o)) {
			changed = true
		}
	}
	return changed
}

// applyCopies propagates all persistent copy constraints once, in the
// rendered-key order sortedCopies maintains (word-parallel unions; no
// per-sweep sorting or key rendering).
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
// per-method instance index, not the full table).
func (a *analyzer) applySeeds() bool {
	changed := false
	for i := range a.cfg.Seeds {
		if a.applySeed(i) {
			changed = true
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
	for i := 0; i < len(a.res.insts); i++ {
		inst := a.res.insts[i]
		for _, ord := range inst.info.events {
			ev := a.event(Inst(i), &inst.info.calls[ord], func(int32) {})
			a.stats.eventsFired++
			for _, e := range a.cfg.OnEvent(ev) {
				if a.install(e, true) {
					changed = true
				}
			}
		}
	}
	return changed
}
