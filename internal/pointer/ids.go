package pointer

// Dense ids for the points-to fixpoint. Every key the solvers hash or
// index is a small integer: a context is an id in the analysis's context
// table, a method instance an id in discovery order, a local variable
// an (instance id, slot) pair, an object field an (object id, field id)
// pair and a static field an id per rendered "Class.field" key. Strings
// are rendered once per new context, object or copy edge — never per
// transfer.

import (
	"sort"
	"strconv"

	"sierra/internal/frontend"
	"sierra/internal/ir"
)

// Inst is the dense id of a method instance (a call-graph node) within
// one Result. Ids number instances in discovery order, from 0.
type Inst int32

// local names one local variable: its instance and its slot in the
// instance's method slot table.
type local struct {
	inst Inst
	slot int32
}

// instance is one method instance.
type instance struct {
	m    *ir.Method
	ctx  int32
	info *methodInfo
	// vars holds each local slot's points-to set; the zero ObjSet marks
	// a local no transfer has materialized.
	vars []ObjSet
	// calls holds the callee ids of each call site of info (by ordinal)
	// in edge order; nil until the instance records its first edge.
	calls [][]Inst
}

// instKey keys the instance table: a method under a context id.
type instKey struct {
	m   *ir.Method
	ctx int32
}

// ctxTable hash-conses contexts by value: k-limiting makes different
// derivations yield equal contexts, and those share one id.
type ctxTable struct {
	ctxs []Context
	strs []string // Context.String of each id, rendered once
	ids  map[Context]int32
}

func (t *ctxTable) intern(c Context) int32 {
	if id, ok := t.ids[c]; ok {
		return id
	}
	id := int32(len(t.ctxs))
	t.ctxs = append(t.ctxs, c)
	t.strs = append(t.strs, c.String())
	t.ids[c] = id
	return id
}

// methodInfo is one reached method's slot table and statement layout,
// built the first time an instance of the method is installed. It is
// keyed by method and position, not stored in statements: one statement
// object may be shared by several methods, and methods no instance
// reaches are never laid out.
type methodInfo struct {
	qname string
	// names lists the locals by slot; slots indexes it by name once it
	// outgrows a scan. Both only grow, so a warm re-layout keeps every
	// existing slot.
	slots     map[string]int32
	names     []string
	this, ret int32
	params    []int32
	stmts     []stmtInfo // per statement, in block order
	calls     []callInfo // per invoke statement, in block order
	events    []int32    // ordinals of the event-firing call sites
	seedSrc   [][]int32  // per slot: the seeds reading the local
	seedTouch []int32    // seeds re-applied when an instance appears
}

// stmtInfo holds one statement's operands as slots and ids. The meaning
// of a, b and c depends on the statement: New a=dst; Move and Return
// a=dst b=src (Return b=-1 without a value); Load a=dst b=base c=field;
// Store a=base b=src c=field; StaticLoad a=dst c=static; StaticStore
// b=src c=static; Invoke a=call ordinal.
type stmtInfo struct {
	a, b, c int32
}

// callInfo is one call site of a method.
type callInfo struct {
	pos        ir.Pos
	inv        *ir.Invoke
	api        frontend.APICall
	recognized bool  // a framework API the frontend models
	looper     bool  // a main-looper accessor
	ord        int32 // the site's index in methodInfo.calls
	recv, dst  int32
	args       []int32
	// site is the site's dense id, the callee memo's key; name is the
	// policy's rendering of the site, built on the first memo miss.
	site int32
	name string
}

// scanSlots is the slot count up to which lookups scan names instead
// of keeping a map.
const scanSlots = 16

// lookup returns name's slot, if it has one.
func (mi *methodInfo) lookup(name string) (int32, bool) {
	if mi.slots != nil {
		s, ok := mi.slots[name]
		return s, ok
	}
	for i, n := range mi.names {
		if n == name {
			return int32(i), true
		}
	}
	return 0, false
}

// slot returns name's slot, assigning the next one on first sight.
func (mi *methodInfo) slot(name string) int32 {
	if s, ok := mi.lookup(name); ok {
		return s
	}
	s := int32(len(mi.names))
	mi.names = append(mi.names, name)
	if mi.slots != nil {
		mi.slots[name] = s
	} else if len(mi.names) > scanSlots {
		mi.slots = make(map[string]int32, 2*len(mi.names))
		for i, n := range mi.names {
			mi.slots[n] = int32(i)
		}
	}
	return s
}

// optSlot is slot for an optional operand: -1 for "".
func (mi *methodInfo) optSlot(name string) int32 {
	if name == "" {
		return -1
	}
	return mi.slot(name)
}

// methodInfo returns m's slot table and layout, building them on first
// use.
func (a *analyzer) methodInfo(m *ir.Method) *methodInfo {
	if mi := a.infos[m]; mi != nil {
		return mi
	}
	mi := &methodInfo{qname: m.QualifiedName(), names: make([]string, 0, scanSlots)}
	mi.this = mi.slot("this")
	mi.params = make([]int32, len(m.Params))
	for i, p := range m.Params {
		mi.params[i] = mi.slot(p)
	}
	mi.ret = mi.slot(retVar)
	a.layout(m, mi)
	for _, si := range a.seedsOf[m] {
		s := &a.cfg.Seeds[si]
		if s.SrcMethod == m {
			slot := mi.slot(s.SrcVar)
			a.seedSlots[si][0] = slot
			for int(slot) >= len(mi.seedSrc) {
				mi.seedSrc = append(mi.seedSrc, nil)
			}
			mi.seedSrc[slot] = append(mi.seedSrc[slot], int32(si))
		}
		if s.DstMethod == m {
			a.seedSlots[si][1] = mi.slot(s.DstVar)
		}
		mi.seedTouch = append(mi.seedTouch, int32(si))
	}
	a.infos[m] = mi
	return mi
}

// layout (re)builds m's per-statement operands, call sites and event
// sites into mi, assigning slots to new local names and ids to new
// fields and statics. A warm re-solve calls it again on a patched body:
// existing slots keep their numbers.
func (a *analyzer) layout(m *ir.Method, mi *methodInfo) {
	n, calls := 0, 0
	for _, blk := range m.Blocks {
		n += len(blk.Stmts)
		for _, s := range blk.Stmts {
			if _, ok := s.(*ir.Invoke); ok {
				calls++
			}
		}
	}
	mi.stmts = make([]stmtInfo, 0, n)
	mi.calls = make([]callInfo, 0, calls)
	mi.events = nil
	for bi, blk := range m.Blocks {
		for si, s := range blk.Stmts {
			var st stmtInfo
			switch s := s.(type) {
			case *ir.New:
				st.a = mi.slot(s.Dst)
			case *ir.Move:
				st.a, st.b = mi.slot(s.Dst), mi.slot(s.Src)
			case *ir.Load:
				st.a, st.b, st.c = mi.slot(s.Dst), mi.slot(s.Obj), a.res.fieldID(s.Field)
			case *ir.Store:
				st.a, st.b, st.c = mi.slot(s.Obj), mi.slot(s.Src), a.res.fieldID(s.Field)
			case *ir.StaticLoad:
				st.a, st.c = mi.slot(s.Dst), a.res.staticID(s.Class, s.Field)
			case *ir.StaticStore:
				st.b, st.c = mi.slot(s.Src), a.res.staticID(s.Class, s.Field)
			case *ir.Return:
				st.a, st.b = mi.ret, mi.optSlot(s.Src)
			case *ir.Invoke:
				st.a = int32(len(mi.calls))
				ci := callInfo{
					pos:  ir.Pos{Method: m, Block: bi, Index: si},
					inv:  s,
					ord:  st.a,
					recv: mi.optSlot(s.Recv),
					dst:  mi.optSlot(s.Dst),
					site: a.nSites,
				}
				a.nSites++
				if s.Kind != ir.InvokeStatic {
					// Dispatch reads the receiver even when it is unnamed.
					ci.recv = mi.slot(s.Recv)
				}
				ci.args = carve(&a.intChunk, len(s.Args))
				for i, arg := range s.Args {
					ci.args[i] = mi.slot(arg)
				}
				ci.api, ci.recognized = frontend.Recognize(a.cfg.Prog, s)
				ci.looper = !ci.recognized && s.Class == frontend.LooperClass &&
					(s.Method == frontend.GetMainLooper || s.Method == frontend.MyLooper)
				if a.cfg.OnEvent != nil && ci.recognized &&
					ci.api.Kind != frontend.APIFindViewByID && ci.api.Kind != frontend.APISetListener {
					mi.events = append(mi.events, st.a)
				}
				mi.calls = append(mi.calls, ci)
			}
			mi.stmts = append(mi.stmts, st)
		}
	}
}

// siteName renders call site ci of method mi the way policies see it:
// "Class#method@block.index".
func (mi *methodInfo) siteName(ci *callInfo) string {
	if ci.name == "" {
		ci.name = mi.qname + "@" + strconv.Itoa(ci.pos.Block) + "." + strconv.Itoa(ci.pos.Index)
	}
	return ci.name
}

// callAt returns the call site at pos, or nil when pos holds no call.
// Calls are laid out in position order, so a binary search finds it.
func (mi *methodInfo) callAt(pos ir.Pos) *callInfo {
	i := sort.Search(len(mi.calls), func(i int) bool {
		p := mi.calls[i].pos
		return p.Block > pos.Block || p.Block == pos.Block && p.Index >= pos.Index
	})
	if i < len(mi.calls) && mi.calls[i].pos == pos {
		return &mi.calls[i]
	}
	return nil
}

// varSet returns a local slot's set without materializing it.
func (inst *instance) varSet(slot int32) ObjSet {
	if slot < 0 || int(slot) >= len(inst.vars) {
		return ObjSet{}
	}
	return inst.vars[slot]
}

// localName renders a local as "Class#method<context>:var" — the
// copy-edge sort key — from the memoized context string.
func (r *Result) localName(l local) string {
	inst := r.insts[l.inst]
	return inst.info.qname + "<" + r.ctx.strs[inst.ctx] + ">:" + inst.info.names[l.slot]
}
